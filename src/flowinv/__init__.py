"""Flow-length distribution estimation from sampled packet traces.

Emulates NetFlow-style flow construction over packet traces, applies packet
sampling or one of three sample-and-hold variants, and statistically inverts
the sampled flow-length distribution to estimate the true one.
"""

from .binning import LogBinning, bin_histogram, bin_mass, ccdf, make_bins
from .distributions import FlowLengthDistribution, ObservedDistribution
from .flowtable import (
    UNBOUNDED,
    FlowRecord,
    FlowSet,
    FlowTableConfig,
    build_flows,
    flow_length_histogram,
    read_flow_csv,
    write_flow_csv,
)
from .inversion import (
    InversionResult,
    PooledInversion,
    invert_sh_byte,
    invert_sh_packet,
    invert_sh_packet_pooled,
    mean_sampled_packet_len,
    syn_estimate,
)
from .report import ComparisonReport, compare, emit_plot_data, load_report
from .sampling import (
    ALWAYS,
    SamplerConfig,
    calibrate_rate,
    forward_packet_sampling,
    forward_sh_packet,
    resample_as_packet_sample,
    sample_packets,
    start_probability,
)
from .trace import (
    FiveTuple,
    PacketRecord,
    SyntheticTraceConfig,
    Trace,
    TraceFormatError,
    generate_trace,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ALWAYS",
    "ComparisonReport",
    "FiveTuple",
    "FlowLengthDistribution",
    "FlowRecord",
    "FlowSet",
    "FlowTableConfig",
    "InversionResult",
    "LogBinning",
    "ObservedDistribution",
    "PacketRecord",
    "PooledInversion",
    "SamplerConfig",
    "SyntheticTraceConfig",
    "Trace",
    "TraceFormatError",
    "UNBOUNDED",
    "bin_histogram",
    "bin_mass",
    "build_flows",
    "calibrate_rate",
    "ccdf",
    "compare",
    "emit_plot_data",
    "flow_length_histogram",
    "forward_packet_sampling",
    "forward_sh_packet",
    "generate_trace",
    "invert_sh_byte",
    "invert_sh_packet",
    "invert_sh_packet_pooled",
    "load_report",
    "make_bins",
    "mean_sampled_packet_len",
    "read_flow_csv",
    "read_trace",
    "resample_as_packet_sample",
    "sample_packets",
    "syn_estimate",
    "write_flow_csv",
    "write_trace",
]
