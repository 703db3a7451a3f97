"""tools/ab_pairs.py, the parent/change pair summary: its aggregation over
canned benchmark result lines."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

SPEC = [("total_s", "lower", 0.25), ("speed", "higher", 0.1)]


def result_line(total_s, speed):
    return json.dumps({
        "correct": True, "attempted": 450, "failed": 0,
        "metrics": {"total_s": {"value": total_s, "unit": "s"},
                    "speed": {"value": speed, "unit": "1/s"}}})


def pairs_of(parent, change):
    return [(ab_pairs.last_json("round 1\n" + result_line(*p) + "\n"),
             ab_pairs.last_json(result_line(*c)))
            for p, c in zip(parent, change)]


def test_last_json_reads_the_last_line():
    out = "kernel python\n{\"a\": 1}\n" + result_line(2.5, 1.0) + "\n\n"
    assert ab_pairs.last_json(out)["metrics"]["total_s"]["value"] == 2.5
    with pytest.raises(ValueError):
        ab_pairs.last_json("\n")
    for line in ("5", "null", "[1, 2]", "\"total_s\""):
        with pytest.raises(ValueError):
            ab_pairs.last_json(result_line(2.5, 1.0) + "\n" + line + "\n")


def test_quartiles():
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_clear_gain_in_a_lower_is_better_metric():
    parent = [(2.6 + 0.01 * i, 1.0) for i in range(10)]
    change = [(2.3 + 0.01 * i, 1.0) for i in range(10)]
    total, speed = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["name"] == "total_s" and total["pairs"] == 10
    assert total["wins"] == 10 and total["gain"] and not total["worse"]
    assert total["parent"][1] == pytest.approx(2.645)
    assert total["ratio"] == pytest.approx(2.345 / 2.645)
    # equal values are ties: no wins, no gain, not worse
    assert speed["wins"] == 0 and not speed["gain"] and not speed["worse"]


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [(2.0, 1.0)] * 10
    change = [(1.0, 1.0)] * 8 + [(3.0, 1.0)] * 2
    total, _ = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["wins"] == 8 and not total["gain"]
    change = [(1.0, 1.0)] * 9 + [(3.0, 1.0)]
    total, _ = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["wins"] == 9 and total["gain"]


def test_gain_needs_ten_pairs():
    # every pair won by far more than the parent's spread
    parent = [(2.6 + 0.01 * i, 1.0) for i in range(10)]
    change = [(1.3 + 0.01 * i, 1.0) for i in range(10)]
    total, _ = ab_pairs.summarize(pairs_of(parent[:3], change[:3]), SPEC)
    assert total["wins"] == 3 and not total["gain"]
    total, _ = ab_pairs.summarize(pairs_of(parent[:9], change[:9]), SPEC)
    assert total["wins"] == 9 and not total["gain"]
    total, _ = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["wins"] == 10 and total["gain"]
    assert "gain" not in ab_pairs.format_rows(ab_pairs.summarize(
        pairs_of(parent[:3], change[:3]), SPEC))


def test_gain_needs_a_gap_beyond_the_parent_spread():
    # the change wins every pair, but by less than the parent's own spread
    parent = [(1.0 + 0.1 * i, 1.0) for i in range(10)]
    change = [(p - 0.01, s) for p, s in parent]
    total, _ = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["wins"] == 10 and not total["gain"]


def test_higher_is_better_and_the_bound():
    parent = [(1.0, 10.0)] * 4
    change = [(1.2, 8.5)] * 4
    total, speed = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert not total["worse"]          # 20% slower, within 25%
    assert speed["wins"] == 0 and speed["worse"]     # 15% lower, beyond 10%
    text = ab_pairs.format_rows([total, speed])
    assert "within bound" in text and "worse than bound" in text


def test_metrics_missing_from_a_side_are_left_out():
    pairs = pairs_of([(1.0, 1.0)], [(1.0, 1.0)])
    del pairs[0][1]["metrics"]["speed"]
    assert [r["name"] for r in ab_pairs.summarize(pairs, SPEC)] == ["total_s"]


def test_spec_reads_the_benchmark_file():
    names = [name for name, _, _ in ab_pairs.end_to_end_spec()]
    assert "total_s" in names and "peak_rss_mb" in names


def test_slower_mirrors_gain():
    # 10% slower in every pair: within the 25% bound, but beyond noise
    parent = [(2.0 + 0.01 * i, 1.0) for i in range(10)]
    change = [(2.2 + 0.01 * i, 1.0) for i in range(10)]
    total, speed = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["losses"] == 10 and total["wins"] == 0
    assert total["slower"] and not total["worse"] and not total["gain"]
    assert speed["losses"] == 0 and not speed["slower"]
    text = ab_pairs.format_rows([total])
    assert "slower" in text and "within bound" not in text
    # fewer than MIN_GAIN_PAIRS pairs cannot show it
    total, _ = ab_pairs.summarize(pairs_of(parent[:9], change[:9]), SPEC)
    assert total["losses"] == 9 and not total["slower"]


def test_slower_needs_nine_tenths_of_the_pairs():
    parent = [(2.0, 1.0)] * 10
    change = [(2.2, 1.0)] * 8 + [(1.0, 1.0)] * 2
    total, _ = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["losses"] == 8 and not total["slower"]
    change = [(2.2, 1.0)] * 9 + [(1.0, 1.0)]
    total, _ = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["losses"] == 9 and total["slower"]


def test_slower_needs_a_gap_beyond_the_parent_spread():
    parent = [(1.0 + 0.1 * i, 1.0) for i in range(10)]
    change = [(p + 0.01, s) for p, s in parent]
    total, _ = ab_pairs.summarize(pairs_of(parent, change), SPEC)
    assert total["losses"] == 10 and not total["slower"]


def test_slower_beside_worse_keeps_the_exit_code(monkeypatch, capsys):
    """A change 30% slower in every pair reads both verdicts, and the run
    still exits 0: only a failed run sets the exit code."""
    def run_once(checkout, workload, seed):
        return json.loads(result_line(2.6 if checkout == "C" else 2.0, 1.0))

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main(["P", "C", "--workload", "w", "--pairs", "10"]) == 0
    out = capsys.readouterr().out
    row = [line for line in out.splitlines() if line.startswith("total_s")]
    assert row and row[0].endswith("worse than bound, slower")


def stand_in(root, body):
    """A checkout whose perfbench/run.py runs body."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n" + body + "\n")
    return str(root)


def test_a_failed_run_shows_why(tmp_path, capsys):
    wrong = stand_in(tmp_path / "wrong", (
        "sys.stderr.write('marker: optimum 7 is not 8')\n"
        "print(json.dumps({'correct': False, 'metrics': {}}))"))
    crash = stand_in(tmp_path / "crash", (
        "print(json.dumps({'correct': True, 'metrics': {}}))\n"
        "sys.stderr.write('x' * 3000 + 'marker: crashed')\n"
        "sys.exit(3)"))
    assert ab_pairs.run_once(wrong, "w", 5) is None
    err = capsys.readouterr().err
    assert "seed 5 failed: exit code 0, correct False" in err
    assert "marker: optimum 7 is not 8" in err
    assert ab_pairs.run_once(crash, "w", 6) is None
    err = capsys.readouterr().err
    assert "seed 6 failed: exit code 3, correct True" in err
    # only the end of a long standard error
    assert "marker: crashed" in err and "x" * 2001 not in err
    # a failed run still sets the exit code, and leaves no verdict
    assert ab_pairs.main([wrong, crash, "--workload", "w",
                          "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "parent failed, change failed" in out
    assert "1 of 1 pairs had a failed run" in out and "metric" not in out


def test_a_last_line_that_is_no_json_object_is_one_failed_run(tmp_path,
                                                              capsys):
    # before, the number raised AttributeError and ended the series
    number = stand_in(tmp_path / "number", "print(5)")
    good = stand_in(tmp_path / "good", (
        "print(json.dumps({'correct': True, 'metrics': "
        "{'total_s': {'value': 1.0}}}))"))
    assert ab_pairs.run_once(number, "w", 7) is None
    assert "seed 7 failed: exit code 0, correct None" in capsys.readouterr().err
    assert ab_pairs.main([good, number, "--workload", "w",
                          "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "change failed, parent total_s 1.0000" in out
    assert "2 of 2 pairs had a failed run" in out


def test_each_run_names_its_kernel(tmp_path, capsys):
    result = ("print(json.dumps({'correct': True, 'metrics': "
              "{'total_s': {'value': %s}}}))")
    parent = stand_in(tmp_path / "parent", (
        "print('kernel python (available: python); nproc 2; python 3')\n"
        + result % "2.0"))
    change = stand_in(tmp_path / "change", (
        "print('kernel compiled (available: python, compiled); nproc 2')\n"
        + result % "1.0"))
    assert ab_pairs.main([parent, change, "--workload", "w",
                          "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert ("pair 0 seed 0: parent total_s 2.0000 (python), "
            "change total_s 1.0000 (compiled)") in out
    assert "note: the sides ran different kernels: parent python, " \
        "change compiled" in out
    assert ab_pairs.main([change, change, "--workload", "w",
                          "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    assert "total_s 1.0000 (compiled)" in out and "note:" not in out
    assert ab_pairs.kernel_of("no kernel line\n") == "?"


@pytest.mark.parametrize("pairs", ["0", "-1", "x", "1.5"])
def test_pairs_below_one_is_a_usage_error(pairs, monkeypatch, capsys):
    def run_once(checkout, workload, seed):
        raise AssertionError("no run starts")

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as exit:
        ab_pairs.main(["P", "C", "--workload", "w", "--pairs", pairs])
    assert exit.value.code == 2
    assert "--pairs: %r is not an integer >= 1" % pairs in (
        capsys.readouterr().err)
