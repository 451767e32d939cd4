"""The benchmark's answer checks must reject wrong answers.

Each check is fed a right answer, the same answer with a dimension off by
one, and the same answer with its certified flag flipped.  The last test
keeps ``BENCHMARK.json`` in step with the metrics ``run.py`` reports.  Run
with

    python3 -m pytest perfbench/test_checks.py
"""

import json
import os

import checks
import run
from checks import FAILED, OK, WRONG


def test_closed_forms():
    # borderline n = 6: dims 6, 16, 21, then vanishing at q = n-3 = 3
    assert [checks.weyman_dim(6, q) for q in range(5)] == [6, 16, 21, 0, 0]
    assert [checks.weyman_dim(8, q) for q in range(6)] == [15, 64, 162, 288, 330, 0]
    assert checks.weyman_vanishing(8, 5) == 5
    assert checks.weyman_vanishing(9, 5) is None
    assert [checks.pencil_dim(q) for q in range(4)] == [1, 2, 3, 4]


def test_degree_check_rejects_off_by_one_and_flipped_flag():
    right = checks.weyman_dim(9, 5)
    assert checks.check_degree(right, right, True) == OK
    assert checks.check_degree(right, right + 1, True) == WRONG
    assert checks.check_degree(right, right - 1, True) == WRONG
    assert checks.check_degree(right, right, False) == FAILED
    # a certified zero for the random top degree
    assert checks.check_degree(0, 0, True) == OK
    assert checks.check_degree(0, 1, True) == WRONG
    assert checks.check_degree(0, 0, False) == FAILED


def test_nonvanishing_checks():
    assert checks.check_degree(checks.pencil_dim(4), 5, False) == FAILED
    assert checks.check_degree(checks.pencil_dim(4), 5, True) == OK
    assert checks.check_degree(checks.pencil_dim(4), 4, False) == WRONG
    e0 = (1, 0, 0, 0)
    e1 = (0, 1, 0, 0)
    assert checks.wedge_pairs(e0, e1) == [(0, 1)]
    assert checks.check_verdict(False, True, (e0, e1)) == FAILED
    assert checks.check_verdict(False, False, (e0, e1)) == OK
    assert checks.check_verdict(True, False, (e0, e1)) == WRONG
    assert checks.check_verdict(False, False, None) == WRONG
    assert checks.check_verdict(False, False, (e0, (0, 1, 1, 0))) == WRONG


def _cli_stdout(n, dims, certified=True):
    records = [{"q": q, "dim": d, "certified": certified} for q, d in enumerate(dims)]
    return json.dumps({"records": records, "vanishing_degree": n - 3}, indent=2)


def test_cli_check():
    dims = [checks.weyman_dim(8, q) for q in range(6)]
    good = _cli_stdout(8, dims)
    assert checks.check_cli_stdout(good, good, 8) == OK
    off = _cli_stdout(8, [dims[0] + 1] + dims[1:])
    assert checks.check_cli_stdout(off, off, 8) == WRONG
    flipped = _cli_stdout(8, dims, certified=False)
    assert checks.check_cli_stdout(flipped, flipped, 8) == FAILED
    # byte identity against the run's first call
    assert checks.check_cli_stdout(good + " ", good, 8) == WRONG
    assert checks.check_cli_stdout("not json", "not json", 8) == WRONG


def test_cache_size_check():
    assert checks.check_cache_size(537, 537)
    assert not checks.check_cache_size(537, 600)
    assert not checks.check_cache_size(0, 0)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.LAYER_UNITS
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units == {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cold_s": "s", "warm_s": "s"}
