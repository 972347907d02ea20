"""One measurement in a fresh interpreter; started by run.py.

    python3 child.py setup <config.ini> <result.json>
    python3 child.py run [--trace <spans.jsonl>] <result.json> -- <nfl argv>

`setup` times importing nelsonlab, loading the configuration,
building the spec of its first fiber and assembling H(P) once.  `run`
times one call of the `nfl` entry point, `nelsonlab.cli.main(argv)`.
Both write a JSON result file; nothing here prints to stdout except
what the program itself prints.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(config):
    import nelsonlab
    from nelsonlab.config import load_config
    from nelsonlab.model import assemble_hamiltonian

    cfg = load_config(config, env={})
    spec = cfg.build_spec(p=float(cfg.p_values[0]))
    H = assemble_hamiltonian(spec)
    elapsed = time.perf_counter() - T0
    return {"setup_s": elapsed, "size": int(spec.basis.size),
            "nnz": int(H.nnz), "module": nelsonlab.__file__}


def run(argv, spans):
    import nelsonlab
    import nelsonlab.cli

    tracer = None
    if spans is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = nelsonlab.cli.main(argv)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans)
    return {"wall_s": wall, "rc": rc, "rss_peak_mb": _peak_rss_mb(),
            "module": nelsonlab.__file__, "env": _environment()}


def _environment():
    """What makes bandwidth- and thread-bound numbers comparable."""
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            threads = int(getter())
    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            l3 = fh.read().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3": l3,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def main(argv):
    mode = argv[0]
    if mode == "setup":
        config, result = argv[1:3]
        out = setup(config)
    elif mode == "run":
        rest = argv[1:]
        spans = None
        if rest[0] == "--trace":
            spans, rest = rest[1], rest[2:]
        result, sep = rest[0], rest[1]
        if sep != "--":
            raise SystemExit(f"expected -- before the nfl arguments, got {sep}")
        out = run(rest[2:], spans)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
