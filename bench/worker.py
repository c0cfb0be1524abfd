"""One benchmark pass in a fresh Python process.

Usage: python3 bench/worker.py <job.json>

Set-up imports numpy, scipy and nadqec and loads the specs; the moment it
ends is written as ``t_ready`` (CLOCK_MONOTONIC, comparable with the
parent's spawn time). An untraced job then samples the host-speed kernel for
set-up (see hostspeed.py). A ``setup`` job stops there. A ``pass`` job then
runs every unit once, one after another on one thread, either under the
tracer or with the host-speed sampler interrupting it, and writes per-unit
times (sampler time taken out), outputs and the peak RSS of this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import hostspeed


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    from nadqec import cli, code3

    units = []
    for u in job["units"]:
        spec = cli.ExperimentSpec.load(u["spec_path"]) if "spec_path" in u else None
        estimate = tuple(u["estimate"]) if "estimate" in u else None
        units.append((u["name"], spec, estimate))
    result = {"t_ready": time.monotonic()}
    traced = job["trace"]
    if not traced:
        result["setup_kernel_s"] = hostspeed.warm_samples(
            hostspeed.SETUP_KERNEL, hostspeed.SETUP_SAMPLES)

    if job["mode"] == "pass":
        tracer = None
        sampler = hostspeed.Sampler(hostspeed.PASS_KERNEL[job["workload"]])
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            sampler.start()
        records = []
        clock = time.perf_counter
        t0 = clock()
        for name, spec, estimate in units:
            rec = {"name": name}
            u0, spent0 = clock(), sampler.spent
            try:
                if spec is not None:
                    rec["rc"] = cli.run(spec)
                else:
                    theta, phi, gamma, p = estimate
                    probs = code3.measured_circuit_distribution(
                        code3.LogicalStateSpec(theta, phi), gamma, p)
                    f_hat, success = code3.fidelity_from_distribution(probs)
            except Exception as exc:  # a failing unit is counted; the pass goes on
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["ms"] = (clock() - u0 - (sampler.spent - spent0)) * 1e3
            if estimate is not None and "error" not in rec:
                rec["output"] = [f_hat, success] + probs.tolist()
            records.append(rec)
        result["wall_s"] = clock() - t0 - sampler.spent
        if not traced:
            sampler.stop()
            # at least one sample, however short the pass
            result["pass_kernel_s"] = sampler.samples + [hostspeed.sample(sampler.kind)]
        result["units"] = records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    result["blas_threads"] = blas_threads()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
