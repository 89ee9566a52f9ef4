"""Command-line entry point.

Subcommands cover the full pipeline: ``generate`` a synthetic trace,
``flows`` (ground-truth flow construction), ``sample`` under a strategy,
``invert`` the sampled flow lengths, and ``compare`` an estimate against the
truth.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import binning, flowtable, inversion, report, sampling, trace
from .distributions import ObservedDistribution

_USAGE_EXIT = 1
_DATA_EXIT = 2

_METHOD_FLAGS = {
    "packet": "packet",
    "sh-packet": "sh_packet",
    "sh-byte": "sh_byte",
    "sh-syn": "sh_syn",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _parse_byte_model(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    return int(text)


def _add_table_flags(parser):
    parser.add_argument("--tt", type=float, default=math.inf,
                        help="flow expiry timeout in seconds (default: no expiry)")
    parser.add_argument("--tw", type=float, default=math.inf,
                        help="buffer export timeout in seconds (default: single window)")
    parser.add_argument("--nf", type=int, default=1 << 62,
                        help="flow buffer capacity in records (default: unbounded)")


def build_parser() -> _Parser:
    parser = _Parser(prog="flowinv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic text trace")
    gen.add_argument("--flows", type=int, required=True)
    gen.add_argument("--alpha", type=float, default=1.5)
    gen.add_argument("--min-len", type=int, default=1)
    gen.add_argument("--max-len", type=int, required=True)
    gen.add_argument("--mean-interarrival", type=float, default=1.0)
    gen.add_argument("--tcp-fraction", type=float, default=1.0)
    gen.add_argument("--extra-syn-prob", type=float, default=0.0)
    gen.add_argument("--extra-syn-max-len", type=int, default=None)
    gen.add_argument("--byte-len", type=_parse_byte_model, default=1500,
                     help="fixed bytes per packet, or LO:HI for a uniform range")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    flows = sub.add_parser("flows", help="ground-truth flow construction (no sampling)")
    flows.add_argument("--in", dest="input", required=True)
    _add_table_flags(flows)
    flows.add_argument("--out", required=True)

    samp = sub.add_parser("sample", help="sampled flow construction")
    samp.add_argument("--in", dest="input", required=True)
    samp.add_argument("--method", choices=sorted(_METHOD_FLAGS), required=True)
    rate = samp.add_mutually_exclusive_group(required=True)
    rate.add_argument("--p", type=float)
    rate.add_argument("--target-fraction", type=float)
    samp.add_argument("--seed", type=int, default=0)
    _add_table_flags(samp)
    samp.add_argument("--out", required=True)

    inv = sub.add_parser("invert", help="estimate the true flow-length distribution")
    inv.add_argument("--in", dest="input", required=True)
    inv.add_argument("--method", choices=["sh-packet", "sh-byte", "syn"], required=True)
    inv.add_argument("--p", type=float)
    inv.add_argument("--mean-bytes", type=float, default=None,
                     help="mean packet length for sh-byte (default: from the sample)")
    inv.add_argument("--bins-per-decade", type=float, default=10)
    inv.add_argument("--out", required=True)

    cmp_ = sub.add_parser("compare", help="compare an estimate against ground truth")
    cmp_.add_argument("--truth", required=True)
    cmp_.add_argument("--estimate", required=True)
    cmp_.add_argument("--bins-per-decade", type=float, default=10)
    cmp_.add_argument("--out", required=True)

    return parser


def _cmd_generate(args) -> int:
    config = trace.SyntheticTraceConfig(
        num_flows=args.flows,
        alpha=args.alpha,
        min_flow_len=args.min_len,
        max_flow_len=args.max_len,
        mean_interarrival=args.mean_interarrival,
        tcp_fraction=args.tcp_fraction,
        extra_syn_prob=args.extra_syn_prob,
        byte_len_model=args.byte_len,
        seed=args.seed,
        extra_syn_max_len=args.extra_syn_max_len,
    )
    packets, truth = trace.generate_trace(config)
    trace.write_trace(args.out, packets)
    print(f"wrote {len(packets)} packets in {args.flows} flows to {args.out}")
    return 0


def _run_table(args, data: trace.Trace, sampler: sampling.SamplerConfig) -> int:
    if data.skipped:
        print(f"skipped {data.skipped} undecodable packets", file=sys.stderr)
    config = flowtable.FlowTableConfig(args.tt, args.tw, args.nf)
    flows = flowtable.build_flows(data.packets, config, sampler)
    flowtable.write_flow_csv(flows, args.out)
    print(
        f"kept {flows.packets_admitted} of {flows.packets_seen} packets in "
        f"{len(flows.records)} flow records ({len(flows.window_boundaries)} windows)"
    )
    return 0


def _cmd_flows(args) -> int:
    return _run_table(args, trace.read_trace(args.input), sampling.ALWAYS)


def _cmd_sample(args) -> int:
    method = _METHOD_FLAGS[args.method]
    data = trace.read_trace(args.input)
    if args.p is None:
        p = sampling.calibrate_rate(data.packets, method, args.target_fraction)
        print(f"calibrated p = {p:.8g} for target fraction "
              f"{args.target_fraction}", file=sys.stderr)
    else:
        p = args.p
    return _run_table(args, data, sampling.SamplerConfig(method, p, args.seed))


def _cmd_invert(args) -> int:
    flows = flowtable.read_flow_csv(args.input)
    ratio = binning.ratio_for_bins_per_decade(args.bins_per_decade)
    meta = {
        "method": args.method,
        "counts": {
            "packets_sampled": flows.packets_admitted,
            "flows_formed": len(flows.records),
            "mean_flow_len": (
                flows.packets_admitted / len(flows.records) if flows.records else 0.0
            ),
        },
    }

    if args.method == "syn":
        estimate = inversion.syn_estimate(flows)
        if estimate.max_len == 0:
            raise ValueError(f"{args.input}: no TCP flows to estimate from")
        # the SYN estimate is used as-is: no normalizer, nothing clamped
        p = args.p if args.p is not None else 1.0
        observed = ObservedDistribution(estimate.probs, p)
        result = inversion.InversionResult(estimate.probs, estimate, 1.0, [], p)
        meta["tcp_only"] = True
        summary = f"wrote SYN-based estimate over {estimate.max_len} lengths to {args.out}"
    else:
        if args.p is None:
            raise ValueError(f"--p is required for method {args.method}")
        if not flows.records:
            raise ValueError(f"{args.input}: no flow records to invert")
        lengths = [rec.packet_count for rec in flows.records]

        if args.method == "sh-byte":
            mean_bytes = args.mean_bytes
            if mean_bytes is None:
                mean_bytes = inversion.mean_sampled_packet_len(flows)
            p_eff = inversion.effective_packet_probability(args.p, mean_bytes)
            observed = ObservedDistribution.from_lengths(lengths, p_eff)
            result = inversion.invert_sh_byte(observed, args.p, mean_bytes)
        else:
            observed = ObservedDistribution.from_lengths(lengths, args.p)
            result = inversion.invert_sh_packet(observed, args.p)
        flagged = f", {len(result.negative_indices)} negative estimates" if result.negative_indices else ""
        summary = f"wrote inversion over {observed.max_len} lengths to {args.out}{flagged}"

    boundaries = binning.make_bins(observed.max_len, ratio)
    pooled = inversion.pool_raw_estimates(result.raw_estimates, boundaries, result.p)
    payload = inversion.inversion_to_json_dict(result, observed, pooled, extra=meta)
    inversion.write_inversion_json(args.out, payload)
    print(summary)
    return 0


def _cmd_compare(args) -> int:
    flows = flowtable.read_flow_csv(args.truth)
    truth_counts = flowtable.flow_length_histogram(flows)
    if not truth_counts:
        raise ValueError(f"{args.truth}: no flow records")
    payload = inversion.read_inversion_json(args.estimate)
    raw = payload["raw"]
    if not raw:
        raise ValueError(f"{args.estimate}: empty estimate")
    ratio = binning.ratio_for_bins_per_decade(args.bins_per_decade)
    max_len = max(max(truth_counts), len(raw))
    boundaries = binning.make_bins(max_len, ratio)
    estimate = inversion.pool_raw_estimates(raw, boundaries, payload["p"])
    result = report.compare(
        truth_counts,
        estimate,
        boundaries,
        sampled=payload.get("observed"),
        metadata={
            "truth": str(args.truth),
            "estimate": str(args.estimate),
            "p": payload["p"],
            "method": payload.get("method"),
            "counts": payload.get("counts", {}),
            "bins_per_decade": args.bins_per_decade,
        },
    )
    csv_path, sidecar = report.emit_plot_data(result, args.out)
    print(
        f"total_variation={result.total_variation:.6g} "
        f"ccdf_max_gap={result.ccdf_max_gap:.6g} -> {csv_path}, {sidecar}"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "flows": _cmd_flows,
    "sample": _cmd_sample,
    "invert": _cmd_invert,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"flowinv {args.command}: {exc}", file=sys.stderr)
        return _DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
