"""The benchmark's three workloads: inputs, requests and output checks.

Each workload makes its inputs from the run's seed in :meth:`setup`,
issues one request per :meth:`send` (the only code inside the timed
region) and judges the outcome in :meth:`check`, outside the timed
region.  The program receives only the generated inputs.

Why these three:

* ``wide-hss`` — per-key work is negligible, so almost all of the wall
  is per-rank Python in sampling, the superstep resolver and
  collectives, and exchange partitioning (O(p^2)).  It exercises the
  p^2-bound Python of the default simulated backend.
* ``deep-process`` — per-rank Python is small, and the time goes to
  per-key kernels (local sort, merge, verification) and to the process
  backend's own cost.  It exercises per-key and IPC work.
* ``serve-mix`` — the only workload that goes through http, the daemon,
  fingerprinting, the splitter cache and in-service workload generation.
  Half of its jobs repeat fingerprints and take the cache-hit path; the
  rest bypass the cache or are malformed.

``BENCHMARK.json`` lists ``deep-process`` and ``serve-mix`` only.  On the
2-core shared host the benchmark was sized on, CPU speed drifted by up
to 50% over minutes, and ``wide-hss`` (pure per-rank Python) tracked it
most closely: the run-to-run spread (interquartile range over median) of
its median latency over ten 20 s runs was 0.19 in one set and 0.29 in
the next, against 0.06-0.10 for the other two and a 0.25 ceiling on any
bound.  Every layer it times is also timed on ``serve-mix`` (resolver,
collectives, sampling, partition) or ``deep-process`` (verification).
It stays runnable by hand (``--workload wide-hss``) and in the smoke
test, for changes aimed at the O(p^2) Python path.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from layers import service_layers, sort_layers

#: Floating-point slack on the ``imbalance <= 1 + eps`` check.
_IMBALANCE_SLACK = 1e-9

#: Exact per-run counts that repeats of the same input must reproduce.
COUNT_FIELDS = ("supersteps", "net_bytes", "net_messages", "rounds",
                "total_sample")


@dataclass
class Request:
    """One operation of a workload's request stream."""

    #: ``"valid"`` (a sort that must succeed) or ``"error"`` (a malformed
    #: request that must be rejected with a structured error).
    kind: str
    #: Keys a successful valid request sorts.
    keys: int = 0
    #: Workload-specific request body.
    body: Any = None


@dataclass
class Checked:
    """The verdict on one outcome plus the counts it reported."""

    failure: str | None
    info: dict[str, Any] = field(default_factory=dict)


def _run_counts(run: Any) -> dict[str, Any]:
    """Exact counts of one ``SortRun``."""
    stats = run.splitter_stats
    return {
        "supersteps": len(run.engine_result.trace),
        "net_bytes": run.engine_result.stats.bytes,
        "net_messages": run.engine_result.stats.messages,
        "rounds": stats.num_rounds if stats is not None else None,
        "total_sample": stats.total_sample if stats is not None else None,
    }


def _count_mismatch(expected: dict, got: dict) -> str | None:
    diffs = [
        f"{k}: {expected[k]} != {got[k]}"
        for k in COUNT_FIELDS
        if k in expected and k in got and expected[k] != got[k]
    ]
    if not diffs:
        return None
    return "exact counts differ on a repeat: " + ", ".join(diffs)


class SortWorkload:
    """Repeated ``Sorter("hss")`` runs on one generated input.

    Every fourth request is a sort; the three between are malformed
    requests to the same front door (unknown algorithm, unknown config
    knob, ``eps`` out of range) that must raise ``ConfigError``.
    """

    MALFORMED = (
        ("hss-unknown", {}),
        ("hss", {"no_such_knob": 1}),
        ("hss", {"eps": -0.5}),
    )

    def __init__(
        self,
        *,
        workload: str,
        procs: int,
        keys_per_rank: int,
        backend: str,
        workers: int | None,
        eps: float,
        seed: int,
    ) -> None:
        self.workload = workload
        self.procs = procs
        self.keys_per_rank = keys_per_rank
        self.backend_name = backend
        self.workers = workers
        self.eps = eps
        self.seed = seed
        self.dataset = None
        self.sorter = None
        self.expected_counts: dict[str, Any] | None = None
        self._oracle: np.ndarray | None = None

    def setup(self) -> tuple[Request, Any]:
        """Generate the input, build the sorter, run one warm-up sort."""
        from repro.algorithms import Dataset, Sorter
        from repro.runtime import get_backend

        self.dataset = Dataset.from_workload(
            self.workload, p=self.procs, n_per=self.keys_per_rank,
            seed=self.seed,
        )
        options = {"workers": self.workers} if self.workers else {}
        self.sorter = Sorter(
            "hss", eps=self.eps, seed=self.seed,
            backend=get_backend(self.backend_name, **options),
        )
        self.expected_counts = None
        self._oracle = None
        warm = self.request(0)
        return warm, self.send(warm)

    def layers(self) -> list[tuple]:
        return sort_layers(type(self.sorter.backend))

    def request(self, i: int) -> Request:
        if i % 4 == 0:
            return Request("valid", self.procs * self.keys_per_rank)
        return Request("error", body=self.MALFORMED[i % 4 - 1])

    def send(self, req: Request, sink: Any = None) -> Any:
        from repro.algorithms import Sorter
        from repro.errors import ConfigError

        if req.kind == "valid":
            return self.sorter.run(self.dataset, trace_sink=sink)
        algorithm, knobs = req.body
        try:
            Sorter(algorithm, backend=self.sorter.backend, **knobs)
        except ConfigError as exc:
            return exc
        return None

    def check(self, req: Request, out: Any) -> Checked:
        from repro.errors import ConfigError

        if req.kind == "error":
            if isinstance(out, ConfigError):
                return Checked(None)
            return Checked(f"malformed request {req.body} was accepted")
        if self._oracle is None:
            self._oracle = np.sort(np.concatenate(self.dataset.shards))
        counts = _run_counts(out)
        info = dict(counts, imbalance=out.imbalance, cache_hit=False)
        if not np.array_equal(np.concatenate(out.shards), self._oracle):
            return Checked("output differs from the np.sort oracle", info)
        if out.imbalance > 1.0 + self.eps + _IMBALANCE_SLACK:
            return Checked(
                f"imbalance {out.imbalance} exceeds 1+eps={1 + self.eps}", info
            )
        if self.expected_counts is None:
            self.expected_counts = counts
        return Checked(_count_mismatch(self.expected_counts, counts), info)

    def cache_counts(self) -> tuple[int, int]:
        return 0, 0

    def start_trace(self, sink: Any) -> None:
        del sink  # Sorter.run receives the sink per request

    def stop_trace(self) -> None:
        pass

    def close(self) -> None:
        self.dataset = self.sorter = None
        self._oracle = None


class ServeWorkload:
    """A closed-loop HTTP client against an in-process ``SortService``.

    One client keeps one request in flight.  Each block of ten jobs holds
    five ``hss`` jobs, four ``sample-regular`` record jobs and one
    malformed job, in a seeded order.  ``hss`` jobs draw a fresh seed per
    request: the fingerprint keys on distribution shape, so most hit the
    splitter cache, while the occasional new fingerprint still misses and
    runs cold.  ``sample-regular`` jobs rotate a few seeds, so that their
    repeats can be checked for identical exact counts.
    """

    HSS_WORKLOADS = ("uniform", "changa-dwarf")
    REGULAR_WORKLOADS = ("uniform", "normal", "exponential", "lognormal",
                         "changa-dwarf")
    PAYLOADS = "mass:f8,id:u4"
    #: Distinct seeds the ``sample-regular`` jobs rotate through.
    ROTATING_SEEDS = 4

    #: Jobs in the generated stream, which the client cycles through.
    STREAM_JOBS = 200

    def __init__(
        self, *, procs: int, keys_per_rank: int, eps: float, seed: int
    ) -> None:
        self.procs = procs
        self.keys_per_rank = keys_per_rank
        self.eps = eps
        self.seed = seed
        self.jobs: list[Request] = []
        self.service = None
        self.server = None
        self.thread: threading.Thread | None = None
        self._counts: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------ inputs #
    def _make_jobs(self) -> list[Request]:
        from repro.experiments import Scenario

        rng = np.random.default_rng([self.seed, 12])
        kinds: list[str] = []
        for _ in range(self.STREAM_JOBS // 10):
            block = ["hss"] * 5 + ["regular"] * 4 + ["malformed"]
            rng.shuffle(block)
            kinds += block
        seeds = [int(s) for s in rng.integers(0, 2**31, self.ROTATING_SEEDS)]
        made = {"hss": 0, "regular": 0, "malformed": 0}
        keys = self.procs * self.keys_per_rank
        jobs = []
        for kind in kinds:
            j = made[kind]
            made[kind] += 1
            base = {"procs": self.procs, "keys_per_rank": self.keys_per_rank,
                    "eps": self.eps, "seed": seeds[j % self.ROTATING_SEEDS]}
            if kind == "malformed":
                jobs.append(Request("error", body=self._malformed(j, base)))
            elif kind == "hss":
                # request() replaces the seed with a fresh one.
                scenario = dict(base, algorithm="hss",
                                workload=self.HSS_WORKLOADS[j % 2])
                jobs.append(Request("valid", keys, body={
                    "scenario": scenario, "fresh_seed": True,
                }))
            else:
                scenario = dict(
                    base, algorithm="sample-regular", payloads=self.PAYLOADS,
                    workload=self.REGULAR_WORKLOADS[
                        j % len(self.REGULAR_WORKLOADS)
                    ],
                )
                jobs.append(Request("valid", keys, body={
                    "scenario": scenario,
                    "echo": Scenario.from_dict(scenario).to_dict(),
                }))
        return jobs

    @staticmethod
    def _malformed(j: int, base: dict) -> dict:
        """Bad JSON, an unknown algorithm, or an unknown scenario field."""
        variant = j % 3
        if variant == 0:
            return {"text": '{"id": "truncated", "scenario": {', "id": None}
        if variant == 1:
            scenario = dict(base, algorithm="hss-unknown", workload="uniform")
        else:
            scenario = dict(base, algorithm="hss", workload="uniform",
                            colour="red")
        return {"scenario": scenario}

    # -------------------------------------------------------- lifecycle #
    def setup(self) -> tuple[Request, Any]:
        """Generate the job stream, start the server, send one job."""
        from repro.service import SortService
        from repro.service.http import make_server

        self.jobs = self._make_jobs()
        self._counts = {}
        self.service = SortService()
        self.server = make_server(self.service, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http",
            kwargs={"poll_interval": 0.05},
        )
        self.thread.start()
        warm = next(self.request(i) for i, job in enumerate(self.jobs)
                    if job.kind == "valid")
        return warm, self.send(warm)

    def close(self) -> None:
        """Stop the server and join its thread; safe to call repeatedly."""
        server, thread = self.server, self.thread
        self.server = self.thread = self.service = None
        if server is None:
            return
        try:
            server.shutdown()
        finally:
            server.server_close()
            if thread is not None:
                thread.join(timeout=30)

    def layers(self) -> list[tuple]:
        return service_layers()

    # ---------------------------------------------------------- requests #
    def request(self, i: int) -> Request:
        job = self.jobs[i % len(self.jobs)]
        job_id = f"job-{i}"
        body = job.body
        if body.get("fresh_seed"):
            from repro.experiments import Scenario

            rng = np.random.default_rng([self.seed, 13, i])
            seed = int(rng.integers(2**31))
            scenario = dict(body["scenario"], seed=seed)
            body = {"scenario": scenario,
                    "echo": Scenario.from_dict(scenario).to_dict()}
        if "text" in body:
            line, expect_id = body["text"], body["id"]
        else:
            line = json.dumps({"id": job_id, "scenario": body["scenario"]})
            expect_id = job_id
        return Request(job.kind, job.keys, dict(body, line=line, id=expect_id))

    def send(self, req: Request, sink: Any = None) -> tuple[int, dict]:
        del sink  # the service holds the sink while tracing
        host, port = self.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.request(
                "POST", "/sort", body=req.body["line"].encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def check(self, req: Request, out: tuple[int, dict]) -> Checked:
        status, reply = out
        if reply.get("id") != req.body["id"]:
            return Checked(f"reply id {reply.get('id')!r} != "
                           f"request id {req.body['id']!r}")
        if req.kind == "error":
            if status == 400 and reply.get("status") == "error":
                return Checked(None)
            return Checked(f"malformed job got HTTP {status} {reply}")
        if status != 200 or reply.get("status") != "ok":
            return Checked(f"valid job got HTTP {status} {reply}")
        metrics = reply["metrics"]
        cache = reply["cache"]
        info = {
            "net_bytes": metrics["net_bytes"],
            "net_messages": metrics["net_messages"],
            "rounds": metrics.get("rounds"),
            "total_sample": metrics.get("total_sample"),
            "imbalance": metrics["imbalance"],
            "cache_hit": cache["hit"],
        }
        if reply["scenario"] != req.body["echo"]:
            return Checked(f"scenario echo {reply['scenario']} differs", info)
        if metrics["imbalance"] > 1.0 + self.eps + _IMBALANCE_SLACK:
            return Checked(f"imbalance {metrics['imbalance']} exceeds "
                           f"1+eps={1 + self.eps}", info)
        if cache["warm_capable"]:
            # Warm starts take hints from whichever run last shared the
            # fingerprint, so warm-capable repeats need not match exactly.
            return Checked(None, info)
        key = json.dumps(req.body["scenario"], sort_keys=True)
        expected = self._counts.setdefault(key, info)
        return Checked(_count_mismatch(expected, info), info)

    def cache_counts(self) -> tuple[int, int]:
        stats = self.service.cache.stats()
        return stats["hits"], stats["misses"]

    def start_trace(self, sink: Any) -> None:
        self.service.trace_sink = sink

    def stop_trace(self) -> None:
        self.service.trace_sink = None


#: name -> (constructor, full-size knobs, tiny-size knobs).
WORKLOADS: dict[str, tuple[type, dict, dict]] = {
    "wide-hss": (
        SortWorkload,
        dict(workload="uniform", procs=256, keys_per_rank=4096,
             backend="simulated", workers=None, eps=0.05),
        dict(workload="uniform", procs=16, keys_per_rank=256,
             backend="simulated", workers=None, eps=0.05),
    ),
    "deep-process": (
        SortWorkload,
        dict(workload="changa-dwarf", procs=16, keys_per_rank=262144,
             backend="process", workers=2, eps=0.05),
        dict(workload="changa-dwarf", procs=4, keys_per_rank=4096,
             backend="process", workers=2, eps=0.05),
    ),
    "serve-mix": (
        ServeWorkload,
        dict(procs=16, keys_per_rank=4096, eps=0.05),
        dict(procs=4, keys_per_rank=256, eps=0.05),
    ),
}


def make_workload(name: str, seed: int, tiny: bool = False) -> Any:
    cls, full, small = WORKLOADS[name]
    return cls(seed=seed, **(small if tiny else full))
