"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR OUT_DIR CONFIG...

Times ``import consensuslab`` and then runs each scenario file through the
CLI until the integrator is entered: ``sim.integrate`` is replaced by a stub
that stops the run, so the build time covers argument handling, parsing,
validation, graphs, operators, delay realizations and vector fields, i.e.
everything before the first RK4 step. Prints {"import_s": .., "build_s": ..}.
"""

import json
import sys
import time


class ReachedIntegrator(Exception):
    pass


def _stop(*args, **kwargs):
    raise ReachedIntegrator


def main(src, out_dir, configs):
    start = time.perf_counter()
    sys.path.insert(0, src)
    from consensuslab import cli, sim
    import_s = time.perf_counter() - start

    sim.integrate = _stop
    build_s = 0.0
    for i, cfg in enumerate(configs):
        start = time.perf_counter()
        try:
            code = cli.main(["--scenario", cfg, "--out", f"{out_dir}/{i}", "--quiet"])
        except ReachedIntegrator:
            build_s += time.perf_counter() - start
        else:
            sys.exit(f"{cfg}: CLI exited with {code} before reaching the integrator")
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
