import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import flowinv
from flowinv.cli import main
from flowinv.flowtable import read_flow_csv
from flowinv.distributions import ObservedDistribution
from flowinv.inversion import effective_packet_probability, invert_sh_packet_pooled
from flowinv.report import load_report


def test_full_pipeline(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    truth_csv = tmp_path / "truth.csv"
    sample_csv = tmp_path / "sample.csv"
    result_json = tmp_path / "result.json"
    report_csv = tmp_path / "report.csv"

    assert main(["generate", "--flows", "2000", "--alpha", "1.5", "--max-len", "200",
                 "--mean-interarrival", "0.01", "--seed", "3", "--out", str(trace)]) == 0
    assert main(["flows", "--in", str(trace), "--out", str(truth_csv)]) == 0
    assert main(["sample", "--in", str(trace), "--method", "sh-packet", "--p", "0.05",
                 "--seed", "1", "--out", str(sample_csv)]) == 0
    assert main(["invert", "--in", str(sample_csv), "--method", "sh-packet",
                 "--p", "0.05", "--bins-per-decade", "10", "--out", str(result_json)]) == 0
    assert main(["compare", "--truth", str(truth_csv), "--estimate", str(result_json),
                 "--bins-per-decade", "10", "--out", str(report_csv)]) == 0

    truth = read_flow_csv(truth_csv)
    assert len(truth.records) == 2000
    payload = json.loads(result_json.read_text())
    assert set(payload) >= {"p", "C", "raw", "clamped", "negative_indices"}
    observed = ObservedDistribution.from_lengths(
        [rec.packet_count for rec in read_flow_csv(sample_csv).records], 0.05)
    pooled = invert_sh_packet_pooled(observed, 0.05, payload["binned"]["boundaries"])
    assert payload["binned"]["raw"] == pooled.raw.tolist()
    assert payload["binned"]["clamped"] == pooled.clamped.tolist()
    report = load_report(report_csv)
    assert 0.0 <= report.total_variation <= 1.0
    assert report.metadata["method"] == "sh-packet"
    assert report.metadata["counts"]["flows_formed"] > 0
    out = capsys.readouterr().out
    assert "total_variation=" in out


def test_sample_with_target_fraction(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    sample_csv = tmp_path / "sample.csv"
    assert main(["generate", "--flows", "3000", "--max-len", "50",
                 "--mean-interarrival", "0.01", "--seed", "5", "--out", str(trace)]) == 0
    assert main(["sample", "--in", str(trace), "--method", "sh-packet",
                 "--target-fraction", "0.05", "--seed", "2", "--tt", "60",
                 "--out", str(sample_csv)]) == 0
    err = capsys.readouterr().err
    assert "calibrated p" in err
    flows = read_flow_csv(sample_csv)
    assert flows.records


def test_syn_invert_path(tmp_path):
    trace = tmp_path / "trace.txt"
    sample_csv = tmp_path / "sample.csv"
    result_json = tmp_path / "syn.json"
    assert main(["generate", "--flows", "500", "--max-len", "40", "--tcp-fraction", "0.8",
                 "--mean-interarrival", "0.01", "--seed", "7", "--out", str(trace)]) == 0
    assert main(["sample", "--in", str(trace), "--method", "sh-syn", "--p", "0.5",
                 "--seed", "4", "--out", str(sample_csv)]) == 0
    assert main(["invert", "--in", str(sample_csv), "--method", "syn",
                 "--out", str(result_json)]) == 0
    payload = json.loads(result_json.read_text())
    assert set(payload) == {"p", "C", "raw", "clamped", "negative_indices", "observed",
                            "binned", "method", "tcp_only", "counts", "approximate"}
    assert payload["tcp_only"] is True
    assert payload["approximate"] is False
    assert payload["method"] == "syn" and payload["p"] == 1.0
    assert payload["C"] == 1.0
    assert payload["negative_indices"] == []
    assert payload["raw"] == payload["clamped"] == payload["observed"]
    assert payload["binned"]["raw"] == payload["binned"]["clamped"]


def test_sh_byte_invert_uses_sample_mean(tmp_path):
    trace = tmp_path / "trace.txt"
    sample_csv = tmp_path / "sample.csv"
    result_json = tmp_path / "byte.json"
    assert main(["generate", "--flows", "800", "--max-len", "60", "--byte-len", "100:1500",
                 "--mean-interarrival", "0.01", "--seed", "9", "--out", str(trace)]) == 0
    assert main(["sample", "--in", str(trace), "--method", "sh-byte", "--p", "0.0005",
                 "--seed", "3", "--out", str(sample_csv)]) == 0
    assert main(["invert", "--in", str(sample_csv), "--method", "sh-byte",
                 "--p", "0.0005", "--out", str(result_json)]) == 0
    payload = json.loads(result_json.read_text())
    assert payload["approximate"] is True
    assert payload["mean_packet_len"] > 100
    assert payload["p"] == effective_packet_probability(0.0005, payload["mean_packet_len"])


def test_usage_errors_exit_one(capsys):
    assert main(["sample", "--in", "x", "--method", "bogus", "--p", "0.1", "--out", "y"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["generate", "--flows", "10"]) == 1  # missing required flags
    capsys.readouterr()


def test_p_and_target_fraction_mutually_exclusive(tmp_path, capsys):
    code = main(["sample", "--in", str(tmp_path / "t"), "--method", "packet",
                 "--p", "0.1", "--target-fraction", "0.01", "--out", "o"])
    assert code == 1
    capsys.readouterr()


def test_data_errors_exit_two(tmp_path, capsys):
    assert main(["flows", "--in", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path / "o.csv")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a packet line\n")
    assert main(["flows", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    # invert without --p on a non-syn method is a data error surfaced cleanly
    flows_csv = tmp_path / "f.csv"
    trace = tmp_path / "t.txt"
    assert main(["generate", "--flows", "10", "--max-len", "5",
                 "--seed", "1", "--out", str(trace)]) == 0
    assert main(["flows", "--in", str(trace), "--out", str(flows_csv)]) == 0
    assert main(["invert", "--in", str(flows_csv), "--method", "sh-packet",
                 "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_compare_estimate_without_positive_mass_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    truth_csv = tmp_path / "truth.csv"
    estimate = tmp_path / "bad.json"
    assert main(["generate", "--flows", "10", "--max-len", "5",
                 "--seed", "1", "--out", str(trace)]) == 0
    assert main(["flows", "--in", str(trace), "--out", str(truth_csv)]) == 0
    estimate.write_text(json.dumps({"p": 0.5, "C": 1.0, "raw": [0.0, -1.0],
                                    "clamped": [0.0, 0.0], "negative_indices": [2]}))
    assert main(["compare", "--truth", str(truth_csv), "--estimate", str(estimate),
                 "--out", str(tmp_path / "report.csv")]) == 2
    assert "no positive mass" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_compare_rejects_non_finite_observed_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    truth_csv = tmp_path / "truth.csv"
    estimate = tmp_path / "bad.json"
    assert main(["generate", "--flows", "10", "--max-len", "5",
                 "--seed", "1", "--out", str(trace)]) == 0
    assert main(["flows", "--in", str(trace), "--out", str(truth_csv)]) == 0
    estimate.write_text(json.dumps({"p": 0.5, "C": 1.0, "raw": [0.6, 0.4],
                                    "clamped": [0.6, 0.4], "negative_indices": [],
                                    "observed": [float("nan"), 2.0]}))
    assert main(["compare", "--truth", str(truth_csv), "--estimate", str(estimate),
                 "--out", str(tmp_path / "report.csv")]) == 2
    assert "sampled contains non-finite probabilities" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_compare_rejects_infinite_raw_estimate_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    truth_csv = tmp_path / "truth.csv"
    estimate = tmp_path / "bad.json"
    assert main(["generate", "--flows", "200", "--max-len", "50",
                 "--seed", "1", "--out", str(trace)]) == 0
    assert main(["flows", "--in", str(trace), "--out", str(truth_csv)]) == 0
    estimate.write_text(json.dumps({"p": 0.5, "C": 1.0, "raw": [float("inf"), 0.5],
                                    "clamped": [1.0, 0.0], "negative_indices": []}))
    assert "Infinity" in estimate.read_text()
    assert main(["compare", "--truth", str(truth_csv), "--estimate", str(estimate),
                 "--out", str(tmp_path / "report.csv")]) == 2
    assert "non-finite mass" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_compare_rejects_two_dimensional_raw_estimate_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    truth_csv = tmp_path / "truth.csv"
    estimate = tmp_path / "bad.json"
    assert main(["generate", "--flows", "200", "--max-len", "50",
                 "--seed", "1", "--out", str(trace)]) == 0
    assert main(["flows", "--in", str(trace), "--out", str(truth_csv)]) == 0
    estimate.write_text(json.dumps({"p": 0.5, "C": 1.0, "raw": [[0.5, 0.1], [0.5, 0.2]],
                                    "clamped": [0.6, 0.4], "negative_indices": []}))
    assert main(["compare", "--truth", str(truth_csv), "--estimate", str(estimate),
                 "--out", str(tmp_path / "report.csv")]) == 2
    assert "must be 1-d" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small trace's truth, sh-packet sample and inversion, made once."""
    d = tmp_path_factory.mktemp("pipeline")
    assert main(["generate", "--flows", "300", "--max-len", "40", "--seed", "2",
                 "--out", str(d / "t.txt")]) == 0
    assert main(["flows", "--in", str(d / "t.txt"), "--out", str(d / "truth.csv")]) == 0
    assert main(["sample", "--in", str(d / "t.txt"), "--method", "sh-packet", "--p", "0.3",
                 "--out", str(d / "sample.csv")]) == 0
    assert main(["invert", "--in", str(d / "sample.csv"), "--method", "sh-packet",
                 "--p", "0.3", "--out", str(d / "result.json")]) == 0
    return d


@pytest.mark.parametrize("bins_per_decade", ["0.001", "1e-320", "nan"])
def test_bad_bins_per_decade_exits_two(pipeline, tmp_path, capsys, bins_per_decade):
    assert main(["invert", "--in", str(pipeline / "sample.csv"), "--method", "sh-packet",
                 "--p", "0.3", "--bins-per-decade", bins_per_decade,
                 "--out", str(tmp_path / "r.json")]) == 2
    assert main(["compare", "--truth", str(pipeline / "truth.csv"),
                 "--estimate", str(pipeline / "result.json"),
                 "--bins-per-decade", bins_per_decade, "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err.count("bins_per_decade must be finite") == 2


@pytest.mark.parametrize("text", ["null", "3", '"p C raw clamped negative_indices"'])
def test_compare_rejects_non_object_inversion_json_exits_two(pipeline, tmp_path, capsys,
                                                             text):
    estimate = tmp_path / "bad.json"
    estimate.write_text(text)
    assert main(["compare", "--truth", str(pipeline / "truth.csv"), "--estimate",
                 str(estimate), "--out", str(tmp_path / "c.csv")]) == 2
    assert "inversion JSON must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["flows"], ["sample", "--method", "packet", "--p", "0.5"]])
def test_pcap_caplen_past_end_of_file_exits_two(tmp_path, capsys, command):
    # a one-record pcap whose record header claims a 4 GB body
    pcap = tmp_path / "long.pcap"
    pcap.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
                     + struct.pack("<IIII", 100, 0, 0xFFFFFFF0, 60) + bytes(60))
    assert main([*command, "--in", str(pcap), "--out", str(tmp_path / "o.csv")]) == 2
    assert "truncated packet body at EOF" in capsys.readouterr().err


def test_non_utf8_trace_exits_two(tmp_path, capsys):
    bad = tmp_path / "capture.bin"
    bad.write_bytes(b"\x0a\x0d\x0d\x0a\x1c\x00\x00\x00\xff\xfe binary\n")
    assert main(["flows", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


def test_pcap_input_is_autodetected(tmp_path, capsys):
    import struct

    def frame(sport, syn):
        eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!H", 0x0800)
        ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 120, 0, 0, 64, 6, 0,
                         bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]))
        tcp = struct.pack("!HHIIBB", sport, 80, 0, 0, 0x50, 0x02 if syn else 0)
        return eth + ip + tcp + b"\x00" * 6

    blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    for i, (sport, syn) in enumerate([(1000, True), (1001, True), (1000, False)]):
        data = frame(sport, syn)
        blob += struct.pack("<IIII", 100 + i, 0, len(data), len(data))
        blob += data
    pcap = tmp_path / "capture.pcap"
    pcap.write_bytes(blob)
    out_csv = tmp_path / "flows.csv"
    assert main(["flows", "--in", str(pcap), "--out", str(out_csv)]) == 0
    flows = read_flow_csv(out_csv)
    assert sorted(rec.packet_count for rec in flows.records) == [1, 2]
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# Runs in a fresh interpreter in which any import of scipy fails.
NO_SCIPY_WALKTHROUGH = r"""
import contextlib, io, json, re, sys
sys.modules["scipy"] = None
from flowinv import cli

d = sys.argv[1]
codes = {}
def run(step, *argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        codes[step] = cli.main([step, *argv])
    return err.getvalue()

run("generate", "--flows", "3000", "--alpha", "1.5", "--max-len", "10000",
    "--mean-interarrival", "0.01", "--seed", "7", "--out", f"{d}/trace.txt")
run("flows", "--in", f"{d}/trace.txt", "--out", f"{d}/truth.csv")
err = run("sample", "--in", f"{d}/trace.txt", "--method", "sh-byte",
          "--target-fraction", "0.01", "--seed", "1", "--out", f"{d}/sample.csv")
p = re.search(r"calibrated p = (\S+)", err).group(1)
run("invert", "--in", f"{d}/sample.csv", "--method", "sh-byte", "--p", p,
    "--out", f"{d}/result.json")
run("compare", "--truth", f"{d}/truth.csv", "--estimate", f"{d}/result.json",
    "--out", f"{d}/report.csv")
print(json.dumps(codes))
"""


def test_walkthrough_runs_without_scipy(tmp_path):
    src = str(Path(flowinv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_WALKTHROUGH, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    assert codes == {"generate": 0, "flows": 0, "sample": 0, "invert": 0, "compare": 0}
    assert (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("field, value, message", [
    ("raw", None, "raw must be 1-d: a list of numbers"),
    ("raw", {"a": 1}, "raw must be 1-d: a list of numbers"),
    ("raw", [0.5, "0.5"], "raw must be 1-d: a list of numbers"),
    ("clamped", [float("nan")], "clamped carries non-finite mass"),
    ("p", "x", "p must be a number, got 'x'"),
    ("p", True, "p must be a number, got True"),
    ("p", 1.5, "p must be in (0, 1], got 1.5"),
    ("negative_indices", [1.5], "negative_indices must be a list of ints"),
    ("observed", [0.5, [0.5]], "observed must be 1-d: a list of numbers"),
])
def test_compare_checks_inversion_json_fields_exits_two(pipeline, tmp_path, capsys,
                                                        field, value, message):
    payload = json.loads((pipeline / "result.json").read_text())
    payload[field] = value
    estimate = tmp_path / "bad.json"
    estimate.write_text(json.dumps(payload))
    assert main(["compare", "--truth", str(pipeline / "truth.csv"), "--estimate",
                 str(estimate), "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{estimate}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c.csv").exists()


def test_compare_reads_the_checked_inversion_json(pipeline, tmp_path):
    # integer entries are numbers too; the report's metadata carries p as given
    payload = json.loads((pipeline / "result.json").read_text())
    payload["raw"] = [1] + [0] * (len(payload["raw"]) - 1)
    estimate = tmp_path / "int.json"
    estimate.write_text(json.dumps(payload))
    assert main(["compare", "--truth", str(pipeline / "truth.csv"), "--estimate",
                 str(estimate), "--out", str(tmp_path / "c.csv")]) == 0
    meta = json.loads((tmp_path / "c.meta.json").read_text())
    assert meta["metadata"]["p"] == payload["p"]


@pytest.mark.parametrize("bins_per_decade", ["1e17", "1e300"])
def test_bins_per_decade_whose_ratio_rounds_to_one_exits_two(pipeline, tmp_path, capsys,
                                                              bins_per_decade):
    assert main(["invert", "--in", str(pipeline / "sample.csv"), "--method", "sh-packet",
                 "--p", "0.3", "--bins-per-decade", bins_per_decade,
                 "--out", str(tmp_path / "r.json")]) == 2
    assert main(["compare", "--truth", str(pipeline / "truth.csv"),
                 "--estimate", str(pipeline / "result.json"),
                 "--bins-per-decade", bins_per_decade, "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"10**(1/bins_per_decade) exceeds 1, got {float(bins_per_decade)}") == 2
    assert "ratio_target" not in err


@pytest.mark.parametrize("column, cell, message", [
    ("packets", "x", "column 'packets': invalid literal for int() with base 10: 'x'"),
    ("first_seen", "soon", "column 'first_seen': could not convert string to float: 'soon'"),
    ("sport", "70000", "bad port 70000"),
])
def test_flow_csv_errors_name_file_line_and_column(pipeline, tmp_path, capsys,
                                                   column, cell, message):
    lines = (pipeline / "sample.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index(column)] = cell
    lines[2] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["invert", "--in", str(bad), "--method", "sh-packet", "--p", "0.3",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert f"{bad}, line 3: {message}" in capsys.readouterr().err
