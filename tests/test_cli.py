import json

from flowinv.cli import main
from flowinv.flowtable import read_flow_csv
from flowinv.inversion import effective_packet_probability
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
