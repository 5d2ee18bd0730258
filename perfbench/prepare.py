"""One set-up of a workload, run in a fresh interpreter.

Usage: ``python3 perfbench/prepare.py <workload> <out.pickle>``

Everything a workload needs before its timed passes: import the
package, compile and load the C fault-simulation kernel into the
(fresh) ``XDG_CACHE_HOME`` the caller chose, build the circuits, insert
scan and collapse faults for the independent reference the checks
simulate against, and, for ``suite_translate``, generate the
conventional baselines.  ``run.py`` starts this several times and
reports the median wall time as ``setup_s``; the products of the last
set-up are pickled to ``out.pickle`` along with per-layer seconds and
the median time of the host-speed reference loop sampled meanwhile.
"""

import os
import pickle
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from passes import SpeedSampler  # noqa: E402  (stdlib-only module)


def main(argv):
    workload, out = argv[1], argv[2]
    with SpeedSampler() as speed:
        products = set_up(workload)
        if products is None:
            return 3
    products["ref_s"] = statistics.median(speed.samples)
    with open(out, "wb") as handle:
        pickle.dump(products, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


def set_up(workload):
    phases = {}
    from repro.sim.kernel import load_kernel_library
    import workloads

    start = time.perf_counter()
    if load_kernel_library() is None:
        sys.stderr.write("perfbench: the compiled C fault-simulation kernel "
                         "is unavailable (no working cc?); refusing to time "
                         "the slower fallback\n")
        return None
    phases["sim.kernel.compile_s"] = time.perf_counter() - start

    from repro.atpg.scan_seq import SecondApproachATPG
    from repro.circuit.scan import insert_scan
    from repro.experiments import suite
    from repro.faults.collapse import collapse_faults

    names = workloads.flow_circuits(workload)
    start = time.perf_counter()
    circuits = {name: workloads.build_circuit(workload, name)
                for name in names}
    scan = {name: insert_scan(circuits[name]).circuit for name in names}
    phases["circuit.build_s"] = time.perf_counter() - start

    start = time.perf_counter()
    faults = {name: collapse_faults(scan[name]) for name in names}
    phases["faults.collapse_s"] = time.perf_counter() - start

    baselines = {}
    if workload == "suite_translate":
        start = time.perf_counter()
        baselines = {name: SecondApproachATPG(
            circuits[name], config=suite.baseline_config_for(name)).generate()
            for name in names}
        phases["atpg.baseline_s"] = time.perf_counter() - start

    return {"circuits": circuits, "scan": scan, "faults": faults,
            "baselines": baselines, "phases": phases}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
