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
    rows = [line.split() for line in out[3:13]]
    kinds = ["congruence", "find-prime", "hurwitz", "trace"]
    assert [row[:2] for row in rows] == [[kind, side] for kind in ["round", *kinds]
                                        for side in ("old", "new")]
    assert all(float(row[2]) >= float(row[3]) > 0 for row in rows)
    assert sum(int(row[4]) for row in rows[:2]) <= 2
    # the kinds' medians of a two-round run add up to the round's median
    for side in (0, 1):
        total = sum(float(row[2]) for row in rows[2 + side::2])
        assert abs(total - float(rows[side][2])) < 0.05 * float(rows[side][2])
    # then each item's medians, by key in the round's order; a median of
    # two rounds is their mean, so the items' medians add up to the round's
    assert out[13].split() == ["item", "old_median_ms", "new_median_ms"]
    items = [line.rsplit(None, 2) for line in out[14:-1]]
    workload = tool.perfbench("workloads").ClassTraces(1)
    assert [label for label, _, _ in items] == [tool.item_label(key)
                                                for key, _ in workload.items]
    assert tool.item_label(("find-prime", "simple", (2, 3), True)) == \
        "find-prime simple 2,3 True"
    for side in (0, 1):
        total = sum(float(item[1 + side]) for item in items)
        assert abs(total - float(rows[side][2])) < 0.01 * float(rows[side][2])
    assert out[-1] == "250 items a round, 0 with output that differs"
    assert sys.modules["ssig"] is ssig


def test_ab_rounds_times_each_build_sweep_graph_and_restores_its_modules(capsys):
    import sys

    import ssig

    tool = load_tool("ab_rounds")
    assert tool.main([str(ROOT), str(ROOT), "--workload", "build_sweep",
                      "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("round 1: old ") and out[0].endswith("(old first)")
    assert [line.split()[:2] for line in out[2:6]] == [
        ["round", "old"], ["round", "new"], ["verify", "old"], ["verify", "new"]]
    # then one line per graph of the workload, in the round's order
    assert out[6].split() == ["item", "old_median_ms", "new_median_ms"]
    rows = [line.split() for line in out[7:-1]]
    workload = tool.perfbench("workloads").BuildSweep(1)
    assert [(kind, int(p), int(ell)) for kind, p, ell, _, _ in rows] == [
        key for key, _ in workload.items]
    assert sorted((int(p), int(ell)) for _, p, ell, _, _ in rows) == sorted(
        workload.GRAPHS)
    assert all(float(ms) > 0 for row in rows for ms in row[3:])
    # a single round's round total is the sum of its per-graph times
    for side, column in (("old", 3), ("new", 4)):
        total = float(out[0].split(f"{side} ")[1].split(" s")[0])
        assert abs(sum(float(row[column]) for row in rows) / 1e3 - total) < 0.002
    assert out[-1] == "14 items a round, 0 with output that differs"
    assert sys.modules["ssig"] is ssig


def test_ab_rounds_runs_the_set_up_of_the_cached_queries_workload(capsys):
    tool = load_tool("ab_rounds")
    assert tool.main([str(ROOT), str(ROOT), "--workload", "cached_queries",
                      "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "31 items a round, 0 with output that differs"
