"""CLI surface: subcommands, formats, exit codes, determinism."""

import json

import pytest

from koszul.cli import main
from koszul.subspaces import weyman_K


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_weyman_csv(capsys):
    code, out, err = run(capsys, ["hilbert", "--weyman", "6", "--format", "csv"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "q,dim_Wq,bound,certified"
    assert lines[1:] == ["0,6,6,true", "1,16,16,true", "2,21,21,true", "3,0,0,true"]


def test_hilbert_table_truncates_tail(capsys):
    code, out, _ = run(capsys, ["hilbert", "--heisenberg", "2", "--q-max", "4"])
    assert code == 0
    assert "dim_Wq = 0 for all q >= 1 (certified)" in out
    # derived rows are folded into the tail line
    assert "  3  0" not in out


def test_hilbert_json_roundtrip(capsys):
    code, out, _ = run(capsys, ["hilbert", "--weyman", "5", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert [r["dim"] for r in data["records"]] == [3, 5, 0]
    assert data["vanishing_degree"] == 2


def test_hilbert_zero_profile(capsys):
    # the zero subspace: dimensions are exact (empty restriction), and the
    # reference bound column is informational only (resonance never vanishes)
    code, out, _ = run(capsys, ["hilbert", "--zero", "4", "--q-max", "3", "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,6,1,true", "1,20,0,true", "2,45,0,true", "3,84,0,true"]


def test_resonance_heisenberg(capsys):
    code, out, _ = run(capsys, ["resonance", "--heisenberg", "2"])
    assert code == 0
    assert "resonance vanishes (certified" in out


def test_resonance_json(capsys):
    code, out, _ = run(capsys, ["resonance", "--zero", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["vanishes"] is False
    assert data["certificate"]["certified_exact"] is True


def test_k_file_input(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(weyman_K(5).to_json()))
    code, out, _ = run(capsys, ["hilbert", "--k-file", str(path), "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines()[1:] == ["0,3,3,true", "1,5,5,true", "2,0,0,true"]


def test_group_torelli(capsys):
    code, out, _ = run(capsys, ["group", "--preset", "torelli", "--g", "12"])
    assert code == 0
    assert "b1 = 2000" in out
    assert "vnc(G/G'') <= 1998" in out


def test_group_b1_json(capsys):
    code, out, _ = run(capsys, ["group", "--b1", "5", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["growth_bound"] == 26
    assert data["conditions"]["vnc_bound"]


def test_group_free_table(capsys):
    code, out, _ = run(capsys, ["group", "--preset", "free", "--n", "3", "--q-max", "4", "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines() == ["q,theta_q", "1,3", "2,3", "3,8", "4,15"]


def test_group_arrangement(capsys):
    code, out, _ = run(capsys, ["group", "--preset", "arrangement", "--h", "0,2", "--q", "3", "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines() == ["q,theta_q", "3,16"]


def test_group_chen_presets_table_and_json(capsys):
    code, out, _ = run(capsys, ["group", "--preset", "free", "--n", "3", "--q-max", "4"])
    assert code == 0
    assert out == "Chen ranks of the free group on 3 generators\n" + "".join(
        f"  theta_{q} = {v}\n" for q, v in [(1, 3), (2, 3), (3, 8), (4, 15)])
    code, out, _ = run(capsys, ["group", "--preset", "free", "--n", "3", "--q-max", "4", "--format", "json"])
    assert code == 0
    assert out == json.dumps({"chen_ranks": [[1, 3], [2, 3], [3, 8], [4, 15]], "n": 3, "name": "free"}, indent=2) + "\n"
    code, out, _ = run(capsys, ["group", "--preset", "arrangement", "--h", "0,2", "--q-max", "4"])
    assert code == 0
    assert out == ("Arrangement Chen ranks for h = [0, 2] (valid for q >> 0)\n"
                   "  theta_2 = 6\n  theta_3 = 16\n  theta_4 = 30\n")
    code, out, _ = run(capsys, ["group", "--preset", "arrangement", "--h", "1,2,3", "--q", "4", "--format", "json"])
    assert code == 0
    payload = {"chen_ranks": [[4, 168]], "h": [1, 2, 3], "name": "arrangement", "validity": "q >> 0 only"}
    assert out == json.dumps(payload, indent=2) + "\n"
    for argv in (["--preset", "free"], ["--preset", "arrangement"], []):
        code, out, err = run(capsys, ["group"] + argv)
        assert code == 2 and out == "" and json.loads(err)["error"] == "InvalidInputError"


def test_selfcheck(capsys):
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 0
    assert "0 failed" in out
    assert out.count("ok   ") == 11


def test_exit_code_invalid_input(capsys):
    code, out, err = run(capsys, ["resonance", "--heisenberg", "1"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InvalidInputError"


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, ["hilbert"])  # missing K source
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_exit_code_resource(capsys):
    # rational field forced with a tiny oracle cap: resource failure
    code, _, err = run(
        capsys,
        ["hilbert", "--weyman", "6", "--field", "rational", "--oracle-cap", "3"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "ResourceLimitError"


def test_determinism_across_threads(capsys):
    _, out1, _ = run(capsys, ["hilbert", "--random", "5", "7", "11", "--format", "json"])
    _, out2, _ = run(capsys, ["hilbert", "--random", "5", "7", "11", "--format", "json", "--threads", "2"])
    assert out1 == out2


def test_threads_flag_contract(capsys, monkeypatch):
    import threading

    import koszul.hilbert

    code, out, err = run(capsys, ["hilbert", "--weyman", "6", "--threads", "0"])
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInputError"
    # degrees run in order on the calling thread, whatever --threads says
    alive = []
    inner = koszul.hilbert.w_dim

    def recording(*args, **kwargs):
        alive.append(threading.enumerate())
        return inner(*args, **kwargs)

    monkeypatch.setattr(koszul.hilbert, "w_dim", recording)
    before = threading.enumerate()  # the main thread, and whatever the test runner keeps
    _, default, _ = run(capsys, ["hilbert", "--weyman", "6", "--format", "json"])
    code, out, _ = run(capsys, ["hilbert", "--weyman", "6", "--format", "json", "--threads", "3"])
    assert code == 0 and out == default
    assert len(alive) == 8 and all(threads == before for threads in alive)


def test_env_primes_override(capsys, monkeypatch):
    monkeypatch.setenv("KOSZUL_PRIMES", "101")
    code, out, _ = run(capsys, ["hilbert", "--weyman", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["records"][0]["certificate"]["primes"] == [101]
    # flags beat the environment
    code, out, _ = run(capsys, ["hilbert", "--weyman", "4", "--format", "json", "--primes", "103"])
    assert json.loads(out)["records"][0]["certificate"]["primes"] == [103]


def test_env_bad_primes(capsys, monkeypatch):
    monkeypatch.setenv("KOSZUL_PRIMES", "15")
    code, _, err = run(capsys, ["hilbert", "--weyman", "4"])
    assert code == 2
    assert json.loads(err)["error"] == "InvalidInputError"


@pytest.mark.parametrize("argv, env", [
    (["hilbert", "--weyman", "4", "--primes", "x"], None),
    (["hilbert", "--weyman", "4"], "x"),
    (["group", "--preset", "arrangement", "--h", "a,b"], None),
])
def test_non_integer_list_exits_2(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("KOSZUL_PRIMES", env)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInputError"


def test_cache_flag(tmp_path, capsys):
    cachedir = tmp_path / "cache"
    args = ["hilbert", "--weyman", "5", "--cache", str(cachedir), "--format", "csv"]
    code1, out1, _ = run(capsys, args)
    assert code1 == 0
    assert (cachedir / "rank-cache.jsonl").exists()
    code2, out2, _ = run(capsys, args)
    assert out1 == out2


def test_truncated_cache_line_is_a_miss(capsys, tmp_path):
    argv = ["hilbert", "--weyman", "5", "--format", "json", "--cache", str(tmp_path)]
    code, clean, _ = run(capsys, argv)
    assert code == 0
    path = tmp_path / "rank-cache.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:-20])  # a killed run leaves a torn last line
    code, out, err = run(capsys, argv)
    assert code == 0 and err == "" and out == clean
    size = path.stat().st_size
    code, out, _ = run(capsys, argv)  # every rank now hits the cache
    assert code == 0 and out == clean
    assert path.stat().st_size == size


def test_forged_cache_line_at_the_bound(capsys, tmp_path):
    import re
    from math import comb

    from koszul.subspaces import subspace_from_rows

    # the hyperplane K at n=6: dim W_3 = 4, a rank of 500 under the bound 504
    width, path = comb(6, 2), tmp_path / "k.json"
    K = subspace_from_rows(6, [[int(i == j) for i in range(width)] for j in range(1, width)])
    path.write_text(json.dumps(K.to_json()))
    argv = ["hilbert", "--k-file", str(path), "--format", "json"]
    _, clean, _ = run(capsys, argv)
    assert [r["dim"] for r in json.loads(clean)["records"]] == [1, 2, 3, 4]
    cached = argv + ["--cache", str(tmp_path / "cache")]
    code, out, _ = run(capsys, cached)
    assert code == 0 and out == clean
    lines = tmp_path / "cache" / "rank-cache.jsonl"
    text = lines.read_text()
    assert text.count('"rank": 500') == 1
    # the q=3 line edited by hand to the bound, as a plain single-prime rank
    text = text.replace('"rank": 500', '"rank": 504').replace('"kernel-verified"', '"single-prime"')
    lines.write_text(re.sub(r', "verified_vectors": \d+', "", text))
    code, out, err = run(capsys, cached)
    assert code == 0 and err == "" and out == clean


def test_cache_under_a_regular_file_exits_1(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, ["hilbert", "--weyman", "5", "--cache", str(blocker / "cache")])
    assert code == 1 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "NotADirectoryError"


def test_over_budget_component_exits_1(capsys, monkeypatch):
    import koszul.linalg

    monkeypatch.setattr(koszul.linalg, "_DENSE_BYTES", 1_000_000)
    code, out, err = run(capsys, ["hilbert", "--random", "7", "11", "5", "--q-max", "4", "--format", "json"])
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ResourceLimitError"


def test_k_file_huge_coefficient(tmp_path, capsys):
    # 10^30 does not fit int64: the matrices keep exact Python ints
    dims = []
    for coeff in (10**30, 2):
        path = tmp_path / "k.json"
        basis = [[{"pair": [0, 1], "num": 1}, {"pair": [2, 3], "num": coeff}]]
        path.write_text(json.dumps({"n": 4, "field": "rational", "basis": basis}))
        code, out, err = run(capsys, ["hilbert", "--k-file", str(path), "--format", "json"])
        assert code == 0 and err == "" and "Traceback" not in out
        data = json.loads(out)
        assert all(r["certified"] for r in data["records"])
        dims.append([r["dim"] for r in data["records"]])
    assert dims[0] == dims[1] == [5, 16]
