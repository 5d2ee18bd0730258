"""The four workloads: what each builds in set-up and runs when timed.

Every workload drives the package only through its public API
(``generation_flow``, ``translation_flow``, ``SecondApproachATPG``,
``ReproServer``/``ServeClient``, ``repro.circuit.corpus``).

Why these four, so that each layer likely to be optimised does most of
the work in one workload and little in another:

* ``suite_generate`` — the Table 5/6 flow on paper stand-ins with the
  experiment runner's presets; sequential ATPG and PODEM redundancy
  proofs are ~95% of the time, compaction a few percent.
* ``suite_translate`` — the Table 7 flow; the conventional baselines are
  built in set-up, so the timed flow runs no ATPG and restoration plus
  omission on the incremental ``SimSession`` dominate.
* ``corpus_generate`` — an s9234-class corpus circuit at ``jobs=2``: the
  only workload where 22k-fault plane width, checkpoint memory and the
  parallel engine matter.
* ``serve_mixed`` — an in-process daemon under a closed loop of clients
  mixing novel submissions (execute, write the cache) with repeats
  (dedup join or cache replay) of tiny flows; admission, the fair
  queue, the cache store and the worker pool dominate.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import threading
import time
from typing import Dict, List, Tuple

from repro.circuit.corpus import flow_overrides, synth_like
from repro.core import FlowConfig, generation_flow, translation_flow
from repro.experiments import suite

#: Paper stand-ins of the generation workload.  Adding s641 and s526
#: would take a pass to ~32 s, more than a run's window; these four
#: keep the ATPG-dominated profile.
SUITE_GENERATE = ("s27", "b06", "s386", "s510")
#: Translation circuits whose flows take ~2.5 s each (b03 and b09 would
#: add ~7 s each).
SUITE_TRANSLATE = ("s641", "s444", "b10")
CORPUS = "s9234"
#: The corpus preset's random preamble, cut from 64 to 10 vectors so a
#: flow fits in a run: it takes ~12 s instead of ~67 s over the same
#: 22,667-fault universe, restoration plus omission still ~65% of it.
CORPUS_RANDOM_VECTORS = 10
CORPUS_JOBS = 2

#: serve_mixed: the distinct (circuit, seed) keys of one pass, and how
#: many submissions a pass makes (the rest are repeats).
SERVE_CIRCUITS = ("s27", "b01", "b02")
SERVE_SEEDS = (1, 2, 3, 4)
SERVE_SUBMISSIONS = 96
SERVE_WORKERS = 2
SERVE_CLIENTS = 2


def _runner_redundancy_limit(name: str) -> int:
    """The experiment runner's per-tier PODEM redundancy limit."""
    tier = suite.spec_of(name).tier
    return {"tiny": 20000, "small": 20000, "medium": 4000}.get(tier, 1500)


def flow_circuits(workload: str) -> Tuple[str, ...]:
    return {"suite_generate": SUITE_GENERATE,
            "suite_translate": SUITE_TRANSLATE,
            "corpus_generate": (CORPUS,),
            "serve_mixed": SERVE_CIRCUITS}[workload]


def build_circuit(workload: str, name: str):
    if workload == "corpus_generate":
        return synth_like(name)
    return suite.build_circuit(name)


def flow_config(workload: str, name: str) -> FlowConfig:
    if workload == "suite_generate":
        return FlowConfig(seed=suite.circuit_seed(name),
                          atpg=suite.atpg_config_for(name),
                          redundancy_backtrack_limit=_runner_redundancy_limit(
                              name),
                          jobs=1)
    if workload == "suite_translate":
        return FlowConfig(seed=suite.circuit_seed(name), jobs=1)
    overrides = flow_overrides(f"corpus:{name}", seed_offset=0)
    overrides["atpg"] = dataclasses.replace(
        overrides["atpg"], initial_random_vectors=CORPUS_RANDOM_VECTORS)
    return FlowConfig(seed=0, jobs=CORPUS_JOBS).replace(**overrides)


def run_flow(workload: str, name: str, circuit, baseline=None):
    cfg = flow_config(workload, name)
    if workload == "suite_translate":
        return translation_flow(circuit, cfg, baseline=baseline)
    return generation_flow(circuit, cfg)


def flow_outputs(workload: str, result) -> Dict:
    """What the checks and metrics read from one flow result."""
    source = result.translated if workload == "suite_translate" \
        else result.raw
    omitted = result.omitted
    return {
        "faults": result.faults,
        "input": [tuple(v) for v in source.vectors],
        "final": [tuple(v) for v in omitted.sequence.vectors],
        "reported": set(omitted.detected) | set(omitted.extra_detected),
    }


# -- serve_mixed -------------------------------------------------------------


def serve_schedule(seed: int, pass_no: int) -> List[Tuple[str, int]]:
    """One pass's submissions, in blocks of ``SERVE_SUBMISSIONS / keys``:
    a novel key (executes, writes the cache), the same key again at
    once (a dedup join, since it is still running), then repeats of
    keys from earlier blocks (cache replays; the first block replays
    its own key, finished by then).  Every pass introduces the same
    keys in the same order, round-robin over the circuits, so each pass
    does the same work; the seed and pass number pick which earlier key
    each replay asks for.  With two clients both wait on the block's
    novel job, so jobs run one at a time and whether a repeat joins or
    replays never depends on timing."""
    rng = random.Random(f"{seed}:{pass_no}")
    keys = [(c, s) for s in SERVE_SEEDS for c in SERVE_CIRCUITS]
    block = SERVE_SUBMISSIONS // len(keys)
    schedule: List[Tuple[str, int]] = []
    for index, key in enumerate(keys):
        schedule += [key, key]
        schedule += [rng.choice(keys[:max(1, index)])
                     for _ in range(block - 2)]
    return schedule


class ServePass:
    """The answers and duration of one pass."""

    def __init__(self, answers: List[Dict], seconds: float):
        #: one record per submission: key, source, status, latency_s,
        #: execute_s, worker_cache_bytes, result JSON (sorted keys), error
        self.answers = answers
        self.seconds = seconds


class ServeDaemon:
    """An in-process daemon in a fresh state directory, kept for the
    whole run so its worker processes are forked once.  Each pass
    submits as a new tenant: tenant overlays keep the cache private, so
    every pass executes the same keys afresh and writes them to the
    cache before replaying them."""

    def __init__(self, state_dir: str, benches: Dict[str, str]):
        from repro.serve import ReproServer, ServerConfig

        self.benches = benches
        self.server = ReproServer(ServerConfig(
            port=0, workers=SERVE_WORKERS, state_dir=state_dir,
            drain_timeout=60.0))
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.run()), daemon=True)

    def __enter__(self) -> "ServeDaemon":
        self.thread.start()
        deadline = time.monotonic() + 30
        while self.server.port == self.server.config.port:
            if time.monotonic() > deadline or not self.thread.is_alive():
                raise RuntimeError("serve daemon never bound a port")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.server.request_shutdown()
        self.thread.join(timeout=90)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon failed to drain")

    def run_pass(self, tenant: str,
                 schedule: List[Tuple[str, int]]) -> ServePass:
        """Drive ``schedule`` with a closed loop of ``SERVE_CLIENTS``
        threads: each sends its next submission once the previous one
        is answered (polling every 20 ms until a queued job ends)."""
        from repro.serve import ServeClient, ServeError

        cursor = iter(list(enumerate(schedule)))
        take = threading.Lock()
        answers: List[Dict] = [None] * len(schedule)

        def client_loop():
            client = ServeClient("127.0.0.1", self.server.port,
                                 tenant=tenant, timeout=120)
            while True:
                with take:
                    item = next(cursor, None)
                if item is None:
                    return
                position, (circuit, seed) = item
                answer = {"key": f"{circuit}/{seed}", "source": None,
                          "status": None, "execute_s": None,
                          "worker_cache_bytes": 0, "result": None,
                          "error": None}
                start = time.perf_counter()
                try:
                    view = client.submit(self.benches[circuit],
                                         config={"seed": seed})
                    answer["source"] = view.get("source")
                    if view.get("status") not in ("done", "failed",
                                                  "budget_exceeded",
                                                  "cancelled"):
                        view = client.wait(view["job_id"], timeout=120,
                                           poll=0.02)
                    answer["status"] = view.get("status")
                    answer["execute_s"] = view.get("elapsed_seconds")
                    answer["worker_cache_bytes"] = view.get(
                        "metrics", {}).get("cache.bytes", 0)
                    if "result" in view:
                        answer["result"] = json.dumps(view["result"],
                                                      sort_keys=True)
                except ServeError as exc:
                    answer["error"] = f"HTTP {exc.status}"
                except Exception as exc:  # recorded as a failed answer
                    answer["error"] = f"{type(exc).__name__}: {exc}"
                answer["latency_s"] = time.perf_counter() - start
                answers[position] = answer

        threads = [threading.Thread(target=client_loop)
                   for _ in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        seconds = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve clients did not finish")
        return ServePass(answers, seconds)


def serve_benches(circuits: Dict) -> Dict[str, str]:
    from repro.circuit.bench import write_bench

    return {name: write_bench(circuit) for name, circuit in circuits.items()}
