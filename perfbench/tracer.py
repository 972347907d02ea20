"""Span tracer installed from outside the program.

`install()` wraps the public functions of each nelsonlab layer and
rebinds every module-level alias of them, because `verify`,
`infrared`, `massshell` and `cli` import them with `from .x import f`
and patching only the defining module would miss those calls.

Every call becomes a span (name, thread, start, end, parent).  Spans
live in memory, one stack per thread so that the worker threads of a
mass-shell scan nest correctly, and are written out only at the end.
A span's self time is its duration minus the time covered by its
children in the same thread.  Work handed to another thread is not a
child, so a span that waits for a pool carries that wait as self time.
"""

import functools
import importlib
import json
import threading
import time

# (span name, module, attribute); "Class.method" wraps a method
WRAPPED = (
    ("spectral.lowest_eigenpair", "spectral", "lowest_eigenpair"),
    ("spectral.ground_state", "spectral", "ground_state"),
    ("spectral.cache.get", "spectral", "GroundStateCache.get"),
    ("spectral.cg_solve", "spectral", "cg_solve"),
    ("spectral.resolvent_apply", "spectral", "resolvent_apply"),
    ("spectral.sym_operator_norm", "spectral", "sym_operator_norm"),
    ("model.assemble_hamiltonian", "model", "assemble_hamiltonian"),
    ("model.transformed_matvec", "model", "transformed_matvec"),
    ("fock.enumerate_basis", "fock", "enumerate_basis"),
    ("fock.field_operator", "fock", "field_operator"),
    ("fock.displace_truncated", "fock", "displace_truncated"),
    ("massshell.scan_mass_shell", "massshell", "scan_mass_shell"),
    ("infrared.pull_through_residual", "infrared", "pull_through_residual"),
    ("infrared.dressed_pull_through_residual", "infrared",
     "dressed_pull_through_residual"),
    ("infrared.apriori_bound_check", "infrared", "apriori_bound_check"),
    ("infrared.dressed_flow", "infrared", "dressed_flow"),
    ("infrared.compactness_diagnostics", "infrared",
     "compactness_diagnostics"),
    ("infrared.resolvent_lipschitz_check", "infrared",
     "resolvent_lipschitz_check"),
    ("infrared.write_flow_outputs", "infrared", "write_flow_outputs"),
    ("convexity.random_parabola_sweep", "convexity",
     "random_parabola_sweep"),
    ("convexity.delta_p_bruteforce", "convexity", "delta_p_bruteforce"),
    ("verify.run_verify", "verify", "run_verify"),
    ("cli.main", "cli", "main"),
)

MODULES = ("fock", "model", "spectral", "massshell", "infrared",
           "convexity", "config", "verify", "cli")

# span of one application of a matvec closure returned by transformed_matvec
APPLY = "model.transformed_matvec.apply"


def _note_lanczos(args, kwargs, result):
    size = kwargs["size"] if "size" in kwargs else args[1]
    info = result[2]
    return {"size": int(size), "steps": int(info["iterations"]),
            "converged": bool(info["converged"])}


def _note_cg(args, kwargs, result):
    return {"iters": int(result[1])}


def _note_scan(args, kwargs, result):
    workers = kwargs.get("workers")
    return {"rows": int(result.size), "failed_rows": len(result.failures),
            "workers": int(workers) if workers and workers > 1 else 1}


# per-span counts read off the arguments and the result
NOTES = {
    "spectral.lowest_eigenpair": _note_lanczos,
    "spectral.cg_solve": _note_cg,
    "massshell.scan_mass_shell": _note_scan,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def call(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [name, 0.0]          # name, time covered by children
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
        span = {"name": name, "thread": threading.get_ident(),
                "start": start, "end": end, "parent": parent,
                "self_s": end - start - frame[1]}
        note = NOTES.get(name)
        if note is not None:
            span.update(note(args, kwargs, result))
        with self._lock:
            self.spans.append(span)
        return result

    def wrap(self, name, fn):
        if name == "model.transformed_matvec":
            @functools.wraps(fn)
            def build(*args, **kwargs):
                matvec = self.call(name, fn, args, kwargs)
                return lambda x: self.call(APPLY, matvec, (x,), {})
            return build

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self):
        """Wrap every function in WRAPPED and rebind all of its aliases
        in the nelsonlab modules.  Returns the number of rebindings."""
        mods = {m: importlib.import_module(f"nelsonlab.{m}")
                for m in MODULES}
        rebound = 0
        for name, mod_name, attr in WRAPPED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod_name], cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                rebound += 1
                continue
            orig = getattr(mods[mod_name], attr)
            traced = self.wrap(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        rebound += 1
        return rebound

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# span name -> metric stem for the plain "calls" and "self seconds" pairs
COUNTED = (
    "spectral.cg_solve", "spectral.resolvent_apply",
    "spectral.sym_operator_norm", "model.assemble_hamiltonian",
    "fock.enumerate_basis", "fock.field_operator", "fock.displace_truncated",
    "convexity.delta_p_bruteforce",
)
TIMED = (
    "infrared.pull_through_residual", "infrared.dressed_pull_through_residual",
    "infrared.apriori_bound_check", "infrared.dressed_flow",
    "infrared.compactness_diagnostics", "infrared.resolvent_lipschitz_check",
    "infrared.write_flow_outputs", "convexity.random_parabola_sweep",
    "verify.run_verify",
)


def layer_metrics(spans):
    """Per-layer counts and self times of one traced run."""
    by = {}
    for span in spans:
        by.setdefault(span["name"], []).append(span)

    def calls(name):
        return len(by.get(name, ()))

    def self_s(*names):
        return sum(s["self_s"] for n in names for s in by.get(n, ()))

    def total(name, key):
        return sum(s[key] for s in by.get(name, ()))

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = self_s(name)
    for name in TIMED:
        out[f"{name}.s"] = self_s(name)

    lz = by.get("spectral.lowest_eigenpair", [])
    steps = total("spectral.lowest_eigenpair", "steps")
    out["spectral.lowest_eigenpair.calls"] = len(lz)
    out["spectral.lowest_eigenpair.steps"] = steps
    out["spectral.lowest_eigenpair.s"] = self_s("spectral.lowest_eigenpair")
    out["spectral.lowest_eigenpair.steps_per_call"] = (
        steps / len(lz) if lz else 0.0)
    out["spectral.lowest_eigenpair.unconverged"] = sum(
        1 for s in lz if not s["converged"])
    # step j of full reorthogonalisation streams the j + 1 stored Lanczos
    # vectors four times (two passes, each V @ w and V.T @ c): computed
    # bytes 16 * size * n * (n + 1) for an n-step solve, cache misses aside
    out["spectral.lowest_eigenpair.reorth_gb"] = sum(
        16.0 * s["size"] * s["steps"] * (s["steps"] + 1)
        for s in lz) / 1e9

    gets = by.get("spectral.cache.get", [])
    misses = sum(1 for s in by.get("spectral.ground_state", ())
                 if s["parent"] == "spectral.cache.get")
    out["spectral.cache.gets"] = len(gets)
    out["spectral.cache.misses"] = misses
    out["spectral.cache.hit_ratio"] = 1.0 - misses / len(gets) if gets else 0.0
    out["spectral.cache.busy_s"] = sum(s["end"] - s["start"] for s in gets)
    out["spectral.ground_state.calls"] = calls("spectral.ground_state")
    out["spectral.cg_solve.iters"] = total("spectral.cg_solve", "iters")

    out["model.transformed_matvec.applies"] = calls(APPLY)
    out["model.transformed_matvec.s"] = self_s(APPLY,
                                               "model.transformed_matvec")

    scans = by.get("massshell.scan_mass_shell", [])
    out["massshell.scan_mass_shell.calls"] = len(scans)
    out["massshell.scan_mass_shell.rows"] = total(
        "massshell.scan_mass_shell", "rows")
    out["massshell.scan_mass_shell.failed_rows"] = total(
        "massshell.scan_mass_shell", "failed_rows")
    out["massshell.scan_mass_shell.s"] = self_s("massshell.scan_mass_shell")
    # busy time of the cache gets made while a scan ran, over the
    # worker-seconds the scans had
    capacity = sum(s["workers"] * (s["end"] - s["start"]) for s in scans)
    busy = sum(g["end"] - g["start"] for g in gets
               if any(s["start"] <= g["start"] and g["end"] <= s["end"]
                      for s in scans))
    out["massshell.parallel_eff"] = busy / capacity if capacity else 0.0

    main = by.get("cli.main", [])
    out["cli.s"] = self_s("cli.main")
    out["cli.traced_wall_s"] = sum(s["end"] - s["start"] for s in main)
    return out
