"""The benchmark's three workloads: inputs, the program under test, checks.

A workload makes its inputs in *units*: unit 0 is the warm-up, units 1..
are measured. A unit's inputs come only from the benchmark seed and the
unit index, so every deployment of a seed sees the same inputs in the
same order and produces the same simulated results.

* ``Workload.unit(index)`` makes the inputs (untimed);
* ``Workload.deploy()`` compiles and deploys the program (timed set-up);
* ``Deployment.run(inputs)`` hands the inputs to the program (timed) and
  returns what it produced;
* ``Deployment.check(inputs, output, checks)`` compares the output with
  an oracle (untimed) and returns the unit's simulated samples;
* ``Workload.sim_metrics(samples)`` turns samples into simulated metrics.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.allreduce import AllReduceJob
from repro.apps.kvs_cache import KvsCluster
from repro.apps.workloads import value_words
from repro.errors import RuntimeApiError
from repro.nclc import Compiler, WindowConfig
from repro.net.node import ForwardingSwitchNode
from repro.net.pisanode import PisaSwitchNode
from repro.net.topo import fat_tree
from repro.runtime import Cluster

US = 1e6  # simulated seconds -> microseconds

Samples = Dict[str, List[float]]
SimMetrics = Dict[str, Tuple[float, str, int]]  # name -> (value, unit, n)


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def _int32(value: int) -> int:
    return ((value + 2**31) % 2**32) - 2**31


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[rank - 1]


class Checks:
    """Output checks. ``failed`` counts failed ops or windows out of
    ``attempted``; ``failures`` names each check that failed, with its
    count."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}

    def attempt(self, n: int) -> None:
        self.attempted += n

    def fail(self, name: str, n: int = 1, counts_as_failed_ops: bool = True) -> None:
        if n <= 0:
            return
        self.failures[name] = self.failures.get(name, 0) + n
        if counts_as_failed_ops:
            self.failed += n


def program_counts(cluster: Cluster, kernel_runs: int) -> Dict[str, int]:
    """Work counts the program keeps itself (no tracing needed), cumulative
    since the deployment was built. Incoming-kernel runs are counted per
    registration, so the caller totals them (*kernel_runs*)."""
    net = cluster.network
    nodes = list(net.nodes.values())
    pipes = [n.switch.stats for n in nodes if isinstance(n, PisaSwitchNode)]
    hosts = list(cluster.hosts.values())
    return {
        "pisa.packets": sum(s.packets for s in pipes),
        "pisa.table_hits": sum(sum(s.table_hits.values()) for s in pipes),
        "pisa.table_lookups": sum(
            sum(s.table_hits.values()) + sum(s.table_misses.values()) for s in pipes
        ),
        "pisa.register_ops": sum(s.register_reads + s.register_writes for s in pipes),
        "nir.kernel_runs": kernel_runs,
        "runtime.windows_sent": sum(h.windows_sent for h in hosts),
        "runtime.windows_received": sum(h.windows_received for h in hosts),
        "net.events": net.sim.events_processed,
        "net.transit_hops": sum(
            n.stats.processed for n in nodes if isinstance(n, ForwardingSwitchNode)
        ),
        "net.link_frames": sum(link.stats.frames for link in net.links),
        "net.link_bytes": sum(link.stats.bytes for link in net.links),
        # A PISA switch's own drops are kernel _drop() verdicts, not losses.
        "net.drops": sum(link.stats.drops for link in net.links)
        + sum(n.stats.drops for n in nodes if not isinstance(n, PisaSwitchNode)),
    }


# -- allreduce -----------------------------------------------------------------


class AllReduce:
    """Fig 4 multi-round AllReduce: closed loop, one round per unit."""

    def __init__(self, seed: int, params: Dict) -> None:
        self.seed = seed
        self.workers = params["workers"]
        self.data_len = params["data_len"]
        self.window_len = params["window_len"]
        self.windows_per_round = self.workers * self.data_len // self.window_len

    def unit(self, index: int) -> List[List[int]]:
        rng = _rng(self.seed, 1, index)
        return rng.integers(-(2**24), 2**24, size=(self.workers, self.data_len)).tolist()

    def windows(self, arrays) -> int:
        return self.windows_per_round

    def deploy(self) -> "AllReduceDeployment":
        return AllReduceDeployment(self)

    @staticmethod
    def sim_metrics(samples: Samples) -> SimMetrics:
        rounds = samples.get("round_us")
        if not rounds:
            return {}
        return {"sim_round_us": (percentile(rounds, 50), "us", len(rounds))}


class AllReduceDeployment:
    def __init__(self, wl: AllReduce) -> None:
        self.wl = wl
        self.job = AllReduceJob(wl.workers, wl.data_len, wl.window_len)
        self.cluster = self.job.cluster
        self.kernel_runs = 0

    def run(self, arrays: List[List[int]]):
        try:
            return self.job.run_round(arrays)
        except RuntimeApiError as exc:  # a worker never got its result
            return exc

    def check(self, arrays, output, checks: Checks) -> Samples:
        wl = self.wl
        checks.attempt(wl.windows_per_round)
        if isinstance(output, RuntimeApiError):
            checks.fail("allreduce.round_completes", wl.windows_per_round)
            return {}
        results, elapsed = output
        # run_round registers the incoming kernel afresh every round.
        self.kernel_runs += sum(
            h.received_count("result") for h in self.cluster.hosts.values()
        )
        expected = AllReduceJob.expected(arrays)
        w = wl.window_len
        for result in results:
            if result != expected:
                wrong = sum(
                    1
                    for base in range(0, wl.data_len, w)
                    if result[base : base + w] != expected[base : base + w]
                )
                checks.fail("allreduce.result_equals_expected", wrong)
        return {"round_us": [elapsed * US]}

    def counts(self) -> Dict[str, int]:
        return program_counts(self.cluster, self.kernel_runs)


# -- kvs -----------------------------------------------------------------------


class Kvs:
    """Fig 5 KVS cache: open loop of GET/PUT on the simulated clock."""

    def __init__(self, seed: int, params: Dict) -> None:
        self.seed = seed
        self.cache_size = params["cache_size"]
        self.n_keys = params["n_keys"]
        self.val_words = params["val_words"]
        self.put_every = params["put_every"]
        self.op_interval = params["op_interval_us"] / US
        self.unit_ops = params["unit_ops"]
        self.warmup_ops = params["warmup_ops"]
        ranks = np.arange(1, self.n_keys + 1, dtype=np.float64)
        weights = ranks ** (-params["zipf"])
        self.weights = weights / weights.sum()
        # The hot set comes from a separate sample of the same popularity
        # law: the cache holds what looked hot, not the true top keys.
        sample = _rng(seed, 2, 0).choice(
            self.n_keys, size=params["hot_sample"], p=self.weights
        )
        freq = np.bincount(sample, minlength=self.n_keys)
        ranked = sorted(range(self.n_keys), key=lambda k: (-int(freq[k]), k))
        self.hot_keys = sorted(ranked[: self.cache_size])

    def unit(self, index: int) -> List[Tuple[int, object]]:
        """(key, None) for a GET, (key, value) for a PUT."""
        n_ops = self.warmup_ops if index == 0 else self.unit_ops
        rng = _rng(self.seed, 3, index)
        keys = rng.choice(self.n_keys, size=n_ops, p=self.weights).tolist()
        values = rng.integers(0, 2**32, size=(n_ops, self.val_words)).tolist()
        every = self.put_every
        return [
            (key, values[i] if i % every == every - 1 else None)
            for i, key in enumerate(keys)
        ]

    def windows(self, ops) -> int:
        return len(ops)  # one request window per op

    def deploy(self) -> "KvsDeployment":
        return KvsDeployment(self)

    @staticmethod
    def sim_metrics(samples: Samples) -> SimMetrics:
        gets, puts, hits = samples.get("get_us"), samples.get("put_us"), samples.get("hit")
        out: SimMetrics = {}
        if gets:
            out["sim_get_p50_us"] = (percentile(gets, 50), "us", len(gets))
            out["sim_get_p99_us"] = (percentile(gets, 99), "us", len(gets))
            out["hit_ratio"] = (sum(hits) / len(hits), "ratio", len(hits))
        if puts:
            out["sim_put_p50_us"] = (percentile(puts, 50), "us", len(puts))
        return out


class KvsDeployment:
    def __init__(self, wl: Kvs) -> None:
        self.wl = wl
        self.kvs = KvsCluster(
            n_clients=1,
            cache_size=wl.cache_size,
            val_words=wl.val_words,
            n_keys=wl.n_keys,
        )
        self.kvs.install_hot_keys(wl.hot_keys)
        self.cluster = self.kvs.cluster
        #: key -> every value a PUT has written to it
        self.written: Dict[int, set] = {}

    def run(self, ops: List[Tuple[int, object]]):
        kvs = self.kvs
        sim = self.cluster.sim
        start = len(kvs.records)
        t0 = sim.now()
        for i, (key, value) in enumerate(ops):
            when = t0 + (i + 1) * self.wl.op_interval
            if value is None:
                sim.schedule_at(when, lambda key=key: kvs.get(0, key))
            else:
                sim.schedule_at(when, lambda key=key, v=value: kvs.put(0, key, v))
        kvs.run()
        return kvs.records[start:]

    def check(self, ops, records, checks: Checks) -> Samples:
        checks.attempt(len(ops))
        checks.fail("kvs.op_completes", len(ops) - len(records))
        for key, value in ops:
            if value is not None:
                self.written.setdefault(key, set()).add(tuple(value))
        samples: Samples = {"get_us": [], "put_us": [], "hit": []}
        for rec in records:
            if rec.op == "PUT":
                samples["put_us"].append(rec.latency * US)
                continue
            samples["get_us"].append(rec.latency * US)
            samples["hit"].append(1.0 if rec.served_by_cache else 0.0)
            value = tuple(rec.value)
            initial = tuple(value_words(rec.key, self.wl.val_words))
            if value != initial and value not in self.written.get(rec.key, ()):
                checks.fail("kvs.get_returns_initial_or_put_value")
        return samples

    def counts(self) -> Dict[str, int]:
        return program_counts(self.cluster, 0)  # raw handlers, no kernel


# -- fabric --------------------------------------------------------------------

#: Hosts-only program: no switch code, so the fabric's switches only
#: forward; the incoming kernel adds up what each host receives.
FABRIC_NCL = r"""
_net_ _out_ void push(int *data) { }
_net_ _in_ void recv(int *data, _ext_ int *total) { total[0] += data[0]; }
"""


class Fabric:
    """libncrt + NCP between hosts of a k-ary fat-tree, one pod over."""

    def __init__(self, seed: int, params: Dict) -> None:
        self.seed = seed
        self.k = params["k"]
        self.hosts = self.k**3 // 4
        pod = (self.k // 2) ** 2
        #: sender index -> receiver index: the same slot one pod over, so
        #: every path goes host-edge-agg-core-agg-edge-host (6 links)
        self.peer = [(i + pod) % self.hosts for i in range(self.hosts)]
        self.send_gap = params["send_gap_us"] / US
        self.unit_windows = params["unit_windows_per_host"]
        self.warmup_windows = params["warmup_windows_per_host"]
        overlay = [f"host w{i}" for i in range(self.hosts)]
        overlay += [f"link w{i} w{j}" for i, j in enumerate(self.peer)]
        # Chain the peer cycles together: the AND overlay must be connected.
        overlay += [f"link w{i} w{i + 1}" for i in range(pod - 1)]
        self.and_text = "\n".join(overlay)

    def unit(self, index: int) -> List[List[int]]:
        """One row per send slot, one value per sending host."""
        n = self.warmup_windows if index == 0 else self.unit_windows
        return _rng(self.seed, 4, index).integers(-1000, 1000, size=(n, self.hosts)).tolist()

    def windows(self, rows) -> int:
        return len(rows) * self.hosts

    def deploy(self) -> "FabricDeployment":
        return FabricDeployment(self)

    @staticmethod
    def sim_metrics(samples: Samples) -> SimMetrics:
        lats = samples.get("window_us")
        if not lats:
            return {}
        return {
            "sim_window_p50_us": (percentile(lats, 50), "us", len(lats)),
            "sim_window_p99_us": (percentile(lats, 99), "us", len(lats)),
        }


class FabricDeployment:
    def __init__(self, wl: Fabric) -> None:
        self.wl = wl
        program = Compiler().compile(
            FABRIC_NCL, and_text=wl.and_text, windows={"push": WindowConfig(mask=(1,))}
        )
        net = fat_tree(wl.k).build()
        pin = {f"w{i}": f"h{i}" for i in range(wl.hosts)}
        self.cluster = Cluster.deploy_mapped(program, net, host_pin=pin)
        self.hosts = [self.cluster.host(f"w{i}") for i in range(wl.hosts)]
        self.totals = [[0] for _ in self.hosts]
        self.expected = [0] * wl.hosts
        self.next_seq = [0] * wl.hosts
        self.sent_at: Dict[Tuple[int, int], float] = {}
        self.latencies: List[float] = []
        self.unexpected = 0
        for host, total in zip(self.hosts, self.totals):
            host.register_in("recv", [total], on_window=self._delivered)

    def _delivered(self, window, host) -> None:
        sent = self.sent_at.pop((window.from_node, window.seq), None)
        if sent is None:
            self.unexpected += 1
        else:
            self.latencies.append(self.cluster.sim.now() - sent)

    def _send(self, src: int, value: int) -> None:
        seq = self.next_seq[src]
        self.next_seq[src] = (seq + 1) & 0xFFFFFFFF
        host = self.hosts[src]
        self.sent_at[(host.node_id, seq)] = self.cluster.sim.now()
        host.out_window("push", seq=seq, chunks=[[value]], dst=f"w{self.wl.peer[src]}")

    def run(self, rows: List[List[int]]) -> List[float]:
        sim = self.cluster.sim
        t0 = sim.now()
        self.latencies = []
        for r, row in enumerate(rows):
            when = t0 + (r + 1) * self.wl.send_gap
            for src, value in enumerate(row):
                sim.schedule_at(when, lambda s=src, v=value: self._send(s, v))
        self.cluster.run()
        return self.latencies

    def check(self, rows, latencies, checks: Checks) -> Samples:
        wl = self.wl
        sent = len(rows) * wl.hosts
        checks.attempt(sent)
        checks.fail("fabric.window_delivered", sent - len(latencies))
        checks.fail("fabric.window_expected", self.unexpected)
        self.unexpected = 0
        for row in rows:
            for src, value in enumerate(row):
                dst = wl.peer[src]
                self.expected[dst] = _int32(self.expected[dst] + value)
        wrong = sum(1 for t, e in zip(self.totals, self.expected) if t[0] != e)
        checks.fail("fabric.host_sum_equals_sent", wrong)
        return {"window_us": [lat * US for lat in latencies]}

    def counts(self) -> Dict[str, int]:
        return program_counts(
            self.cluster, sum(h.received_count("recv") for h in self.hosts)
        )


WORKLOADS = {"allreduce": AllReduce, "kvs": Kvs, "fabric": Fabric}
