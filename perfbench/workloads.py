"""The three workloads and their correctness gates.

Each workload is one `nfl` subcommand on a generated INI file.  The
gate runs after the timed region on the files the runs wrote and
returns (attempted, failed, notes).  An operation is a named check for
verify, a scan row for shell_scan and a mu step for flow_deep.  A
mismatch against a reference or between two runs of one invocation
counts as a failed operation, never as a skipped one.
"""

import json
import math

import numpy as np
import scipy.sparse.linalg

# the check registry of `nfl verify`, in report order
VERIFY_CHECKS = (
    "hyp_h1", "hyp_h2_subadditive", "hyp_h4_window", "hyp_h5_monotone",
    "hyp_omega_diff", "alg_ccr_pairs", "alg_dgamma_additivity",
    "alg_weyl_composition", "alg_weyl_roundtrip", "cf_nr_massive",
    "cf_nr_massless", "cf_sr", "cf_free_field", "der_fd_gradient",
    "der_second_derivative", "pt_guarded", "pt_dressed",
    "pt_leak_recorded", "res_ratio", "res_amode", "res_argmax_tracks_p",
    "shell_lower", "shell_upper", "shell_midpoint", "shell_gradient",
    "shell_mu_monotone", "shell_i0", "shell_d_bound",
    "shell_grad_cauchy_recorded", "flow_undressed_growth",
    "flow_dressed_variation", "flow_dressed_nonincreasing",
    "flow_regular_cauchy", "flow_transform_gap_recorded", "cmp_c_stable",
    "cmp_tail", "cmp_shift_monotone", "cvx_fixed_instances",
    "cvx_random_sweep", "cvx_overshoot", "cvx_mass_shell_diff",
    "cvx_envelope", "lip_pair_bound", "lip_stability", "guard_h4_message",
    "guard_pull_through_message", "guard_transform_aux",
)

VERIFY_TASKS = ("hypotheses", "algebra", "closed_forms", "derivatives",
                "pull_through", "resolvent_bound", "shell", "flow",
                "compactness", "convexity", "lipschitz", "guards")

SHELL_WORKERS = 2
SHELL_MUS = (0.4, 0.3, 0.2, 0.1, 0.05)
SHELL_ROWS = 25
FLOW_MUS = (0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

# fibers per run whose energies are recomputed with eigsh
SAMPLE = 4


def _lines_differing(a, b):
    la, lb = a.splitlines(), b.splitlines()
    diff = sum(1 for x, y in zip(la, lb) if x != y)
    return diff + abs(len(la) - len(lb))


def _eigsh_mismatch(spec, energy, tol):
    """True when `energy` is not the lowest eigenvalue of H(spec) to the
    solver tolerance tol * |H|_inf, by an independent ARPACK solve."""
    from nelsonlab.model import assemble_hamiltonian

    H = assemble_hamiltonian(spec)
    v0 = np.ones(H.shape[0])
    ref = scipy.sparse.linalg.eigsh(H, k=1, which="SA", tol=1e-13, v0=v0,
                                    return_eigenvectors=False)[0]
    scale = max(1.0, float(abs(H).sum(axis=1).max()))
    return not (math.isfinite(energy) and abs(energy - ref) <= tol * scale)


class Verify:
    name = "verify"
    ini = ""
    op = "named check"
    ops_per_call = len(VERIFY_CHECKS)

    def argv(self, config, out, seed):
        return ["verify", "--workers", "1", "--config", config,
                "--out", out, "--seed", str(seed)]

    def gate(self, runs, cfg, rng):
        attempted = failed = 0
        first = None
        for run in runs:
            text = (run.out / "verify.json").read_text(encoding="utf-8")
            report = json.loads(text)
            names = [c["name"] for c in report["checks"]]
            attempted += self.ops_per_call
            failed += sum(1 for a, b in zip(names, VERIFY_CHECKS) if a != b)
            failed += abs(len(names) - len(VERIFY_CHECKS))
            if run.rc != (0 if report["passed"] else 1):
                failed += 1
            if first is None:
                first = (text, report)
            elif text != first[0]:
                failed += max(1, sum(1 for a, b in zip(report["checks"],
                                                       first[1]["checks"])
                                     if a != b))
        last = report
        return attempted, failed, {
            "checks": last["n_checks"],
            "checks_failed": last["n_failed"],
            "failing": [c["name"] for c in last["checks"] if not c["ok"]],
        }


def _read_csv(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line.startswith("P,"):
            continue
        cells = line.split(",")
        rows.append((float(cells[0]), float(cells[1])))
    return rows


class ShellScan:
    name = "shell_scan"
    ini = "[schedule]\nP = ray -0.6 0.6 25\n"
    op = "scan row"
    ops_per_call = len(SHELL_MUS) * SHELL_ROWS

    def argv(self, config, out, seed):
        return ["massshell", "--workers", str(SHELL_WORKERS), "--config",
                config, "--out", out, "--seed", str(seed)]

    def gate(self, runs, cfg, rng):
        from nelsonlab.model import with_mu

        attempted = failed = 0
        first = {}
        for run in runs:
            if run.rc != 0:
                failed += self.ops_per_call
            for mu in SHELL_MUS:
                path = run.out / f"massshell_mu{mu:g}.csv"
                attempted += SHELL_ROWS
                if not path.exists():
                    failed += SHELL_ROWS
                    continue
                text = path.read_text(encoding="utf-8")
                rows = _read_csv(path)
                failed += sum(1 for _, e in rows if not math.isfinite(e))
                failed += max(0, SHELL_ROWS - len(rows))
                if mu not in first:
                    first[mu] = (text, rows)
                elif text != first[mu][0]:
                    failed += _lines_differing(text, first[mu][0])
        picks = rng.choice(len(SHELL_MUS) * SHELL_ROWS, SAMPLE, replace=False)
        for pick in sorted(int(x) for x in picks):
            mu = SHELL_MUS[pick // SHELL_ROWS]
            rows = first.get(mu, (None, []))[1]
            if pick % SHELL_ROWS >= len(rows):
                failed += 1
                continue
            p, energy = rows[pick % SHELL_ROWS]
            failed += _eigsh_mismatch(with_mu(cfg.build_spec(p=p), mu), energy,
                                      cfg.solver.tol)
        return attempted, failed, {"eigsh_sample": SAMPLE}


class FlowDeep:
    name = "flow_deep"
    ini = ("[model]\nalpha = 0.25\n[grid]\nN_max = 6\n[schedule]\n"
           "mu = " + " ".join(f"{mu:g}" for mu in FLOW_MUS) + "\nP = 0.3\n")
    op = "mu step"
    ops_per_call = len(FLOW_MUS)

    def argv(self, config, out, seed):
        return ["flow", "--config", config, "--out", out,
                "--seed", str(seed)]

    def gate(self, runs, cfg, rng):
        from nelsonlab.model import with_mu

        attempted = failed = 0
        first = None
        for run in runs:
            text = (run.out / "flow.json").read_text(encoding="utf-8")
            flow = json.loads(text)
            attempted += len(FLOW_MUS)
            if run.rc != 0:
                failed += len(FLOW_MUS)
            for i in range(len(FLOW_MUS)):
                energy = flow["energies"][i] if i < len(
                    flow["energies"]) else None
                gap = flow["transform_gap"][i] if i < len(
                    flow["transform_gap"]) else None
                if energy is None or gap is None \
                        or not (math.isfinite(energy) and math.isfinite(gap)):
                    failed += 1
            if first is None:
                first = (text, flow)
            elif text != first[0]:
                failed += _lines_differing(text, first[0])
        spec = cfg.build_spec(p=0.3)
        energies = first[1]["energies"]
        for i in sorted(int(x) for x in rng.choice(len(FLOW_MUS), SAMPLE - 1,
                                                   replace=False)):
            energy = energies[i] if i < len(energies) else math.nan
            failed += _eigsh_mismatch(with_mu(spec, FLOW_MUS[i]), energy,
                                      cfg.solver.tol)
        return attempted, failed, {"eigsh_sample": SAMPLE - 1,
                                   "warnings": len(first[1]["warnings"])}


WORKLOADS = {w.name: w for w in (Verify(), ShellScan(), FlowDeep())}
