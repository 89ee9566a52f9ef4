"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), runs its timed section in ``iteration`` one call after another,
and checks the outputs in ``check`` afterwards.  Every CLI subcommand,
library call and output check is an operation counted by ``Ops``.

* ``cli_text``: the README walkthrough through ``flowinv.cli.main``; text
  trace and flow-CSV I/O, ``build_flows`` with every key live, calibration.
* ``pcap_sweep``: one pcap read, then every sampler under an unbounded and a
  bounded flow table, then the matching estimates; no text or CSV I/O.
* ``estimator_sweep``: no packets; forward laws, multinomial draws and the
  inversion/binning/report layers.  It bypasses every per-packet layer.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from flowinv import binning, cli, flowtable, inversion, report, sampling, trace
from flowinv.distributions import FlowLengthDistribution, ObservedDistribution

import pcap_fixture
from tracing import table_counts


class OperationFailed(Exception):
    """An operation failed; the iteration stops."""


class Ops:
    """Counts attempted and failed operations.

    ``marks`` gets the ``perf_counter`` time at which each library call or
    CLI subcommand ended, so a worker can split its timed section into one
    segment per operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.marks: list[float] = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def call(self, func, *args, **kwargs):
        """One library call; an exception counts as a failure and ends the iteration."""
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{func.__name__}: {exc!r}")
            raise OperationFailed(func.__name__) from exc
        finally:
            self.marks.append(time.perf_counter())

    def cli(self, argv: list[str]) -> tuple[str, str]:
        """One CLI subcommand run in-process; returns its stdout and stderr."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:
            self._fail(f"flowinv {argv[0]}: {exc!r}")
            raise OperationFailed(argv[0]) from exc
        finally:
            self.marks.append(time.perf_counter())
        if code != 0:
            self._fail(f"flowinv {argv[0]} exited {code}: {err.getvalue().strip()}")
            raise OperationFailed(argv[0])
        return out.getvalue(), err.getvalue()

    def check(self, what: str, test) -> bool:
        """One output check; ``test`` is a zero-argument callable returning a bool."""
        self.attempted += 1
        try:
            ok = bool(test())
        except Exception as exc:
            self._fail(f"check {what}: {exc!r}")
            return False
        if not ok:
            self._fail(f"check failed: {what}")
        return ok


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_records(flows) -> str:
    digest = hashlib.sha256()
    for r in flows.records:
        digest.update(f"{r.flow_id},{r.packet_count},{r.byte_count},{r.first_seen!r},"
                      f"{r.last_seen!r},{r.syn_count}\n".encode())
    return digest.hexdigest()


def round_trips(csv_path, scratch_path) -> bool:
    """A report re-read with ``load_report`` and written again is byte-identical."""
    loaded = report.load_report(csv_path)
    again, again_meta = report.emit_plot_data(loaded, scratch_path)
    meta = str(csv_path)[: -len(".csv")] + ".meta.json"
    return (sha256_file(csv_path) == sha256_file(again)
            and sha256_file(meta) == sha256_file(again_meta))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliTextScale:
    flows: int
    max_len: int
    tv_limit: float | None


class CliText:
    """The README walkthrough: generate -> flows -> sample -> invert -> compare.

    The input is the walkthrough's own: generator seed 7, sampler seed 1.
    Its report's total variation is checked against acceptance criterion 4's
    bound of 0.15.  That bound is on a median over five traces; a single
    trace at another generator seed exceeds it in about half the seeds, so
    the benchmark seed does not change this input.
    """

    name = "cli_text"
    unit = "packets"
    SCALES = {
        "full": CliTextScale(flows=100_000, max_len=10_000, tv_limit=0.15),
        "tiny": CliTextScale(flows=3_000, max_len=1_000, tv_limit=None),
    }
    GENERATOR_SEED = 7
    SAMPLER_SEED = 1

    def __init__(self, scale: str, seed: int, workdir: Path, ops: Ops):
        self.scale = self.SCALES[scale]
        self.seed = seed
        self.dir = workdir
        self.ops = ops
        self.units = 0

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)

    def inputs(self) -> dict:
        return {"flows": self.scale.flows, "max_len": self.scale.max_len,
                "generator_seed": self.GENERATOR_SEED, "sampler_seed": self.SAMPLER_SEED,
                "packets": self.units}

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def iteration(self) -> dict:
        cmd = self.ops.cli
        tr, truth, sample = self._path("trace.txt"), self._path("truth.csv"), self._path("sample.csv")
        result, rep = self._path("result.json"), self._path("report.csv")
        gen_out, _ = cmd(["generate", "--flows", str(self.scale.flows), "--alpha", "1.5",
                          "--max-len", str(self.scale.max_len), "--mean-interarrival", "0.01",
                          "--seed", str(self.GENERATOR_SEED), "--out", tr])
        flows_out, _ = cmd(["flows", "--in", tr, "--out", truth])
        sample_out, sample_err = cmd(["sample", "--in", tr, "--method", "sh-packet",
                                      "--target-fraction", "0.01", "--seed", str(self.SAMPLER_SEED),
                                      "--tt", "300", "--out", sample])
        p = re.search(r"calibrated p = (\S+)", sample_err).group(1)
        cmd(["invert", "--in", sample, "--method", "sh-packet", "--p", p,
             "--bins-per-decade", "10", "--out", result])
        compare_out, _ = cmd(["compare", "--truth", truth, "--estimate", result,
                              "--bins-per-decade", "10", "--out", rep])
        self.units = int(re.match(r"wrote (\d+) packets", gen_out).group(1))
        return {"flows": flows_out, "sample": sample_out, "p": p, "compare": compare_out}

    def check(self, out: dict) -> dict:
        check = self.ops.check
        n = self.units
        table = re.compile(r"kept (\d+) of (\d+) packets in (\d+) flow records \((\d+) windows\)")
        kept, seen, records, windows = map(int, table.search(out["flows"]).groups())
        s_kept, s_seen, s_records, s_windows = map(int, table.search(out["sample"]).groups())
        check("ALWAYS admits every packet", lambda: kept == seen == n)

        def truth_sum():
            with open(self._path("truth.csv"), newline="") as fh:
                return sum(int(row["packets"]) for row in csv.DictReader(fh))

        check("truth record packet counts sum to the trace length", lambda: truth_sum() == n)
        with open(self._path("report.meta.json")) as fh:
            tv = json.load(fh)["total_variation"]
        if self.scale.tv_limit is not None:
            check(f"report total variation {tv} <= {self.scale.tv_limit}",
                  lambda: tv <= self.scale.tv_limit)
        check("report CSV round-trips through load_report",
              lambda: round_trips(self._path("report.csv"), self._path("report_again.csv")))
        with open(self._path("result.json")) as fh:
            negative = len(json.load(fh)["negative_indices"])
        prints = {
            "packets": n,
            "truth.records": records, "truth.windows": windows, "truth.admitted": kept,
            "sample.records": s_records, "sample.windows": s_windows,
            "sample.admitted": s_kept, "sample.seen": s_seen,
            "calibrated_p": out["p"], "negative_estimates": negative,
            "total_variation": repr(tv),
        }
        for name in ("trace.txt", "truth.csv", "sample.csv", "result.json", "report.csv"):
            prints[f"sha256.{name}"] = sha256_file(self._path(name))
        return prints


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcapScale:
    flows: int
    max_len: int
    bad_per_kind: int
    bounded: flowtable.FlowTableConfig


class PcapSweep:
    """One pcap read, then every sampler under an unbounded and a bounded table.

    Flow starts and intra-flow gaps both have mean 1 s, so a 400 s window
    opens about 400 ALWAYS records.  The bounded table (idle timeout 4 s,
    export timer 400 s, capacity 420) therefore exports on capacity in some
    windows and on the timer in others, and the idle timeout splits long
    flows under every sampler.
    """

    name = "pcap_sweep"
    unit = "frames"
    METHODS = ("always", "packet", "sh_packet", "sh_byte", "sh_syn")
    TARGET_FRACTION = 0.05
    SCALES = {
        "full": PcapScale(25_000, 1_000, 250, flowtable.FlowTableConfig(4.0, 400.0, 420)),
        "tiny": PcapScale(1_500, 300, 5, flowtable.FlowTableConfig(4.0, 100.0, 105)),
    }

    def __init__(self, scale: str, seed: int, workdir: Path, ops: Ops):
        self.scale = self.SCALES[scale]
        self.seed = seed
        self.dir = workdir
        self.ops = ops
        self.pcap = workdir / "sweep.pcap"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        config = trace.SyntheticTraceConfig(
            num_flows=self.scale.flows, alpha=1.2, max_flow_len=self.scale.max_len,
            mean_interarrival=1.0, tcp_fraction=0.7, extra_syn_prob=0.2,
            byte_len_model=(40, 1500), seed=self.seed)
        packets, self.truth = trace.generate_trace(config)
        self.packets = len(packets)
        self.injected = pcap_fixture.write_pcap(self.pcap, packets, self.scale.bad_per_kind, self.seed)
        self.units = self.packets + sum(self.injected.values())

    def inputs(self) -> dict:
        return {"flows": self.scale.flows, "max_len": self.scale.max_len,
                "packets": self.packets, "frames": self.units, "injected": self.injected,
                "pcap_bytes": self.pcap.stat().st_size}

    def iteration(self) -> dict:
        call = self.ops.call
        data = call(trace.read_trace, str(self.pcap))
        rates, flows = {}, {}
        for method in self.METHODS:
            p = 1.0 if method == "always" else call(
                sampling.calibrate_rate, data.packets, method, self.TARGET_FRACTION)
            rates[method] = p
            sampler = sampling.SamplerConfig(method, p, self.seed)
            for label, table in (("unbounded", flowtable.UNBOUNDED), ("bounded", self.scale.bounded)):
                flows[method, label] = call(flowtable.build_flows, data.packets, table, sampler)

        truth = call(flowtable.flow_length_histogram, flows["always", "unbounded"])
        bounds = call(binning.make_bins, max(truth))

        def lengths(method):
            return [r.packet_count for r in flows[method, "unbounded"].records]

        p = rates["sh_packet"]
        observed = call(ObservedDistribution.from_lengths, lengths("sh_packet"), p)
        pooled = call(inversion.invert_sh_packet_pooled, observed, p, bounds)
        mean_len = call(inversion.mean_sampled_packet_len, flows["sh_byte", "unbounded"])
        p_eff = call(inversion.effective_packet_probability, rates["sh_byte"], mean_len)
        observed_b = call(ObservedDistribution.from_lengths, lengths("sh_byte"), p_eff)
        byte_est = call(inversion.invert_sh_byte, observed_b, rates["sh_byte"], mean_len)
        syn_est = call(inversion.syn_estimate, flows["sh_syn", "unbounded"])
        reports = {
            "sh_packet": call(report.compare, truth, pooled, bounds, sampled=observed),
            "sh_byte": call(report.compare, truth, byte_est.clamped_normalized, bounds),
            "sh_syn": call(report.compare, truth, syn_est, bounds),
        }
        held = call(sampling.sample_packets, data.packets, sampling.SamplerConfig("sh_packet", p, self.seed))
        thinned = call(sampling.resample_as_packet_sample, held, p, self.seed)
        return {"data": data, "rates": rates, "flows": flows, "truth": truth, "pooled": pooled,
                "byte_est": byte_est, "reports": reports, "held": len(held),
                "thinned": len(thinned)}

    def check(self, out: dict) -> dict:
        check = self.ops.check
        data, flows = out["data"], out["flows"]
        n = len(data)
        check("skipped frames equal the injected total",
              lambda: data.skipped == sum(self.injected.values()))
        check("every generated packet decodes", lambda: n == self.packets)
        counts = {key: table_counts(fs, self.scale.bounded if key[1] == "bounded" else flowtable.UNBOUNDED)
                  for key, fs in flows.items()}
        for label in ("unbounded", "bounded"):
            fs = flows["always", label]
            check(f"ALWAYS ({label}) admits every packet",
                  lambda: fs.packets_admitted == fs.packets_seen == n
                  and sum(r.packet_count for r in fs.records) == n)
        check("UNBOUNDED truth histogram equals generate_trace's truth",
              lambda: np.array_equal(FlowLengthDistribution.from_counts(out["truth"]).probs,
                                     self.truth.probs))
        bounded = [counts[m, "bounded"] for m in self.METHODS]
        check("bounded runs show capacity exports",
              lambda: sum(c["capacity_exports"] for c in bounded) > 0)
        check("bounded runs show timer exports",
              lambda: sum(c["timer_exports"] for c in bounded) > 0)
        check("bounded runs show timeout splits",
              lambda: sum(c["timeout_splits"] for c in bounded) > 0)
        check("sample_packets keeps what the unbounded sh_packet table admits",
              lambda: out["held"] == flows["sh_packet", "unbounded"].packets_admitted)
        check("resampling keeps each held flow's first packet and no more than it was given",
              lambda: counts["sh_packet", "unbounded"]["records"] <= out["thinned"] <= out["held"])
        prints = {"skipped": data.skipped, "packets": n,
                  "negative_estimates": len(out["byte_est"].negative_indices)
                  + int((out["pooled"].raw < 0).sum()),
                  "held": out["held"], "thinned": out["thinned"]}
        for method, p in out["rates"].items():
            prints[f"calibrated_p.{method}"] = repr(p)
        for (method, label), c in counts.items():
            for key in ("records", "windows", "admitted", "capacity_exports", "timer_exports",
                        "timeout_splits"):
                prints[f"{method}.{label}.{key}"] = c[key]
            prints[f"sha256.{method}.{label}"] = sha256_records(flows[method, label])
        for method, rep in out["reports"].items():
            prints[f"total_variation.{method}"] = repr(rep.total_variation)
        return prints


# ---------------------------------------------------------------------------


class Fit(NamedTuple):
    raw_sum: float
    negative: int
    total_variation: float
    ccdf_last: tuple
    binned: binning.LogBinning


@dataclass(frozen=True)
class EstimatorScale:
    support: int
    packet_support: int
    observed_flows: int
    draws: int


class EstimatorSweep:
    """The statistical-recovery experiment with the packet layers removed.

    For each rate p the exact sample-and-hold law of a truncated power-law
    truth is drawn from ``draws`` times (multinomial, ``observed_flows``
    flows) and each draw is inverted three ways, compared, CCDF'd and
    binned.  ``forward_packet_sampling`` runs once, on the truth cut to
    ``packet_support``: its O(m^2) cost stays visible without swamping the
    rest.
    """

    name = "estimator_sweep"
    unit = "fits"
    RATES = (0.001, 0.003, 0.01, 0.03, 0.1)
    ALPHA = 1.5
    MEAN_BYTES = 500.0
    PACKET_RATE = 0.01
    TV_LIMIT = 0.15
    SCALES = {
        "full": EstimatorScale(support=10_000, packet_support=3_000, observed_flows=20_000, draws=200),
        "tiny": EstimatorScale(support=1_000, packet_support=300, observed_flows=2_000, draws=3),
    }

    def __init__(self, scale: str, seed: int, workdir: Path, ops: Ops):
        self.scale = self.SCALES[scale]
        self.seed = seed
        self.dir = workdir
        self.ops = ops
        self.units = len(self.RATES) * self.scale.draws

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        weights = np.arange(1, self.scale.support + 1, dtype=float) ** -(self.ALPHA + 1.0)
        self.truth = FlowLengthDistribution(weights / weights.sum())
        cut = weights[: self.scale.packet_support]
        self.truth_cut = FlowLengthDistribution(cut / cut.sum())
        self.bounds = binning.make_bins(self.scale.support)

    def inputs(self) -> dict:
        return {"support": self.scale.support, "packet_support": self.scale.packet_support,
                "observed_flows": self.scale.observed_flows, "draws_per_rate": self.scale.draws,
                "rates": list(self.RATES), "fits": self.units}

    def iteration(self) -> dict:
        call = self.ops.call
        rng = np.random.default_rng(self.seed)
        bounds = self.bounds
        per_rate = []
        for p in self.RATES:
            law = call(sampling.forward_sh_packet, self.truth, p)
            p_byte = -math.expm1(math.log1p(-p) / self.MEAN_BYTES)
            fits = []
            first = None
            for _ in range(self.scale.draws):
                counts = rng.multinomial(self.scale.observed_flows, law.probs)
                lengths = np.flatnonzero(counts)
                hist = dict(zip((lengths + 1).tolist(), counts[lengths].tolist()))
                probs = call(FlowLengthDistribution.from_counts, hist).probs
                observed = call(ObservedDistribution, probs, p)
                raw = call(inversion.invert_sh_packet, observed, p)
                pooled = call(inversion.invert_sh_packet_pooled, observed, p, bounds)
                by_byte = call(inversion.invert_sh_byte, observed, p_byte, self.MEAN_BYTES)
                rep = call(report.compare, self.truth, pooled, bounds, sampled=observed)
                tail = call(binning.ccdf, observed)
                binned = call(binning.bin_histogram, hist, bounds)
                # Keep only what the checks need, so peak RSS stays the program's.
                fits.append(Fit(float(raw.raw_estimates.sum()),
                                len(raw.negative_indices) + len(by_byte.negative_indices),
                                rep.total_variation, tail[-1], binned))
                if first is None:
                    first = rep
            csv_path = self.dir / f"report_p{p:g}.csv"
            call(report.emit_plot_data, first, csv_path)
            loaded = call(report.load_report, csv_path)
            per_rate.append((p, law, fits, first, loaded, csv_path))
        packet_law = call(sampling.forward_packet_sampling, self.truth_cut, self.PACKET_RATE)
        return {"per_rate": per_rate, "packet_law": packet_law}

    def check(self, out: dict) -> dict:
        check = self.ops.check
        n = self.scale.observed_flows
        bounds = self.bounds
        negative = 0
        tvs = []
        prints = {}
        for p, law, fits, first, loaded, csv_path in out["per_rate"]:
            check(f"forward then invert recovers the truth at p={p}",
                  lambda: np.abs(inversion.invert_sh_packet(law, p).raw_estimates
                                 - self.truth.probs).max() <= 1e-9)
            check(f"bin_histogram mass equals the flow count at p={p}",
                  lambda: all(sum(avg * (hi - lo) for avg, lo, hi
                                  in zip(f.binned.averages, bounds, bounds[1:])) == n
                              for f in fits))
            check(f"raw estimates sum to 1 at p={p}",
                  lambda: all(abs(f.raw_sum - 1.0) <= 1e-9 for f in fits))
            check(f"CCDF ends at exactly 0 at p={p}",
                  lambda: all(f.ccdf_last[1] == 0.0 for f in fits))
            rate_tvs = [f.total_variation for f in fits]
            check(f"median total variation <= {self.TV_LIMIT} at p={p}",
                  lambda: statistics.median(rate_tvs) <= self.TV_LIMIT)
            check(f"report CSV round-trips through load_report at p={p}",
                  lambda: loaded.per_bin_table == first.per_bin_table
                  and loaded.total_variation == first.total_variation
                  and round_trips(csv_path, self.dir / "report_again.csv"))
            negative += sum(f.negative for f in fits)
            tvs.extend(rate_tvs)
            prints[f"sha256.report_p{p:g}.csv"] = sha256_file(csv_path)
        packet_law = out["packet_law"]
        check("forward_packet_sampling law covers the cut support and sums to 1",
              lambda: packet_law.max_len == self.scale.packet_support
              and abs(float(packet_law.probs.sum()) - 1.0) <= 1e-12)
        prints["negative_estimates"] = negative
        prints["sha256.total_variations"] = hashlib.sha256(np.array(tvs).tobytes()).hexdigest()
        prints["sha256.packet_law"] = hashlib.sha256(packet_law.probs.tobytes()).hexdigest()
        return prints


WORKLOADS = {w.name: w for w in (CliText, PcapSweep, EstimatorSweep)}
