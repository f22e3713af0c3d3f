"""Report-file output for the stats and bench commands."""

import os

from yona.cli import main


def test_stats_report_file(tmp_path, small_batch_file, capsys):
    report = tmp_path / "stats.txt"
    code = main(["stats", "--dataset", str(small_batch_file), "--n", "50",
                 "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert report.read_text() == out


def test_bench_report_file(tmp_path, capsys):
    report = tmp_path / "bench.txt"
    code = main(["bench", "--aug", "identity", "--iterations", "200",
                 "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert report.read_text() == out
    assert "ratio=" in report.read_text()


def test_failed_report_write_keeps_the_earlier_report(
        tmp_path, small_batch_file, capsys, monkeypatch):
    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing)
    report = tmp_path / "report.txt"
    report.write_text("earlier report\n")
    for argv in (["stats", "--dataset", str(small_batch_file), "--n", "50"],
                 ["bench", "--aug", "identity", "--iterations", "200"]):
        code = main(argv + ["--report", str(report)])
        assert code == 3 and "disk full" in capsys.readouterr().err
        assert report.read_text() == "earlier report\n"
        assert os.listdir(tmp_path) == ["report.txt"]
