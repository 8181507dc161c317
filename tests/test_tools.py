import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_exports_finds_no_difference_between_a_tree_and_itself(capsys):
    tool = load_tool("compare_exports")
    assert tool.main([str(ROOT), str(ROOT), "--max", "40"]) == 0
    assert "8 exports compared" in capsys.readouterr().out


def test_compare_exports_queries_find_no_difference_between_a_tree_and_itself(capsys):
    tool = load_tool("compare_exports")
    assert tool.main([str(ROOT), str(ROOT), "--max", "40", "--queries"]) == 0
    out = capsys.readouterr().out
    assert "8 exports compared" in out
    assert "16 query outputs compared: 0 differ" in out
    assert "10 intersect outputs for the other ell-pairs compared: 0 differ" in out
    assert "30 biroute outputs for the other ell-pairs compared: 0 differ" in out


def test_ab_builds_times_a_tree_against_itself_and_restores_its_modules(capsys):
    import sys

    import ssig

    tool = load_tool("ab_builds")
    assert tool.main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("round 1: old ") and out[0].endswith("(old first)")
    assert out[1] == "tree  median_s  min_s  wins"
    assert [line.split()[0] for line in out[2:4]] == ["old", "new"]
    # then each tree's median per graph of the build_sweep workload
    assert out[4] == "    p  ell  old_median_ms  new_median_ms"
    rows = [line.split() for line in out[5:]]
    assert [(int(p), int(ell)) for p, ell, _, _ in rows] == tool.sweep_graphs()
    assert all(float(ms) > 0 for row in rows for ms in row[2:])
    # a single round's round total is the sum of its per-graph times
    for side, column in (("old", 2), ("new", 3)):
        total = float(out[0].split(f"{side} ")[1].split(" s")[0])
        assert abs(sum(float(row[column]) for row in rows) / 1e3 - total) < 0.002
    assert sys.modules["ssig"] is ssig


def test_ab_rounds_times_a_workload_against_itself_and_restores_its_modules(capsys):
    import sys

    import ssig

    tool = load_tool("ab_rounds")
    assert tool.main([str(ROOT), str(ROOT), "--workload", "class_traces",
                      "--rounds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("round 1: old ") and out[0].endswith("(old first)")
    assert out[1].startswith("round 2: old ") and out[1].endswith("(new first)")
    assert out[2] == "kind        tree  median_ms    min_ms  wins"
    # the round, then each kind of item of the workload, old then new
    rows = [line.split() for line in out[3:-1]]
    kinds = ["congruence", "find-prime", "hurwitz", "trace"]
    assert [row[:2] for row in rows] == [[kind, side] for kind in ["round", *kinds]
                                        for side in ("old", "new")]
    assert all(float(row[2]) >= float(row[3]) > 0 for row in rows)
    assert sum(int(row[4]) for row in rows[:2]) <= 2
    # the kinds' medians of a two-round run add up to the round's median
    for side in (0, 1):
        total = sum(float(row[2]) for row in rows[2 + side::2])
        assert abs(total - float(rows[side][2])) < 0.05 * float(rows[side][2])
    assert out[-1] == "250 items a round, 0 with output that differs"
    assert sys.modules["ssig"] is ssig


def test_ab_rounds_runs_the_set_up_and_the_fresh_caches_of_the_other_workloads(capsys):
    tool = load_tool("ab_rounds")
    for workload, items in (("cached_queries", 31), ("build_sweep", 14)):
        assert tool.main([str(ROOT), str(ROOT), "--workload", workload,
                          "--rounds", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"{items} items a round, 0 with output that differs"
