"""CLI surface: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import time
from math import comb

import pytest

from koszul.cli import main
from koszul.subspaces import subspace_from_rows, weyman_K


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
    # a negative n is checked before C(n,2) is computed
    for source in (["--full", "-1"], ["--random", "-3", "1", "1"], ["--random", "-3", "0", "1"]):
        code, out, err = run(capsys, ["hilbert", *source, "--q-max", "0"])
        assert code == 2 and out == "" and "Traceback" not in err, source
        lines = err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInputError", source


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, ["hilbert"])  # missing K source
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_exit_code_resource(tmp_path, capsys):
    # rational field forced with a tiny oracle cap: resource failure
    code, _, err = run(
        capsys,
        ["hilbert", "--weyman", "6", "--field", "rational", "--oracle-cap", "3"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "ResourceLimitError"
    # a growth bound of more than 4300 digits fails before the binomial is computed
    too_large = [["group", "--b1", "7141", "--format", fmt] for fmt in ("table", "json", "csv")]
    too_large += [["group", "--preset", "torelli", "--g", g] for g in ("40", "100")]
    too_large += [["group", "--preset", "kahler", "--q-x", "4000"]]
    # a K whose m dense rows of C(n,2) cells exceed the dense budget fails before any
    # row is built; --weyman 400 is 797 x 79,800 cells
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**6, "field": "rational", "basis": [[{"pair": [0, 1], "num": 1}]]}))
    sources = [["--full", "3000"], ["--weyman", "3000"], ["--heisenberg", "2000"], ["--k-file", str(huge)],
               ["--weyman", "400"]]
    too_large += [["hilbert", *source, "--q-max", "0"] for source in sources]
    for argv in too_large:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 1 and out == "" and "Traceback" not in err, argv
        lines = err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ResourceLimitError", argv
    code, out, _ = run(capsys, ["group", "--b1", "7140", "--format", "json"])
    assert code == 0 and len(out.encode()) == 13417
    code, out, _ = run(capsys, ["hilbert", "--weyman", "200", "--q-max", "0", "--format", "csv"])
    assert code == 0 and out == "q,dim_Wq,bound,certified\n0,19503,19503,true\n"


@pytest.mark.parametrize("argv", [["--preset", "free", "--n", "3", "--q-max", "-2"],
                                  ["--preset", "arrangement", "--h", "1,2", "--q-max", "-3"],
                                  ["--b1", "5", "--q-max", "-1"]])
def test_group_refuses_negative_q_max(capsys, argv):
    code, out, err = run(capsys, ["group", *argv])
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": "InvalidInputError", "message": f"need q_max >= 0, got {argv[-1]}"}


def test_oversized_koszul_matrix_fails_fast(capsys):
    # W_q whose index tables or triplets exceed the dense budget fails before anything is
    # built: at n = 20, q = 17 the multiplication table alone is 3.5 * 10^11 cells, at
    # n = 12, q = 9 the matrix has 2.2 * 10^7 entries, and --zero 100000 has 10^10 cells
    for argv in (["resonance", "--weyman", "20"], ["resonance", "--weyman", "12"],
                 ["hilbert", "--zero", "100000", "--q-max", "0"]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 1 and out == "" and "Traceback" not in err, argv
        lines = err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ResourceLimitError", argv


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


@pytest.mark.parametrize("extra", [[], ["--field", "rational"]])
def test_negative_oracle_cap_exits_2(capsys, extra):
    code, out, err = run(capsys, ["hilbert", "--weyman", "5", "--oracle-cap", "-3", *extra])
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInputError"


@pytest.mark.parametrize("source, dims", [
    (["--weyman", "6"], [6, 16, 21, 0]),
    (["--random", "6", "9", "1", "--q-max", "2"], None),
    # a 148800x465 matrix at q=2 with 930 entries: the oracle copies only the rows that hold one
    (["--k-file", None, "--q-max", "2"], [434, 8960, 107415]),
])
def test_rational_oracle_matches_automatic_mode(tmp_path, capsys, source, dims):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"n": 30, "field": "rational", "basis": [[{"pair": [0, 1], "num": 1}]]}))
    argv = ["hilbert", *[str(path) if a is None else a for a in source], "--format", "csv"]
    code, auto, err = run(capsys, argv)
    assert code == 0 and err == ""
    code, out, err = run(capsys, argv + ["--field", "rational"])
    assert code == 0 and err == "" and out == auto
    if dims is not None:
        assert [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]] == dims


def test_unlucky_only_prime_certifies_without_oracle(tmp_path, capsys):
    # an n = 5 K whose basis has the coefficients 7 and 14: mod 7 the ranks of
    # degrees 1 and 2 fall short, and later primes certify the rational ones
    basis = [[{"pair": [0, 3], "num": 1}, {"pair": [1, 2], "num": 14}],
             [{"pair": [2, 3], "num": 1}, {"pair": [1, 3], "num": 14}],
             [{"pair": [0, 4], "num": 1}], [{"pair": [2, 4], "num": 1}],
             [{"pair": [3, 4], "num": 1}, {"pair": [0, 1], "num": 7}]]
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"n": 5, "field": "rational", "basis": basis}))
    code, out, err = run(capsys, ["hilbert", "--k-file", str(path), "--primes", "7", "--oracle-cap", "0",
                                  "--format", "json"])
    assert code == 0 and err == ""
    records = json.loads(out)["records"]
    assert [r["dim"] for r in records] == [5, 15, 30] and all(r["certified"] for r in records)
    assert [r["certificate"]["primes"][0] for r in records] == [7, 7, 7]


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
    (["hilbert", "--weyman", "4", "--primes", ""], None),
])
def test_non_integer_list_exits_2(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("KOSZUL_PRIMES", env)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInputError"


GOOD_K = {"n": 4, "field": "rational", "basis": [[{"pair": [0, 1], "num": 1}, {"pair": [2, 3], "num": 2}]]}


def k_entry(**change):
    """GOOD_K with its first entry changed; a value of None removes the key."""
    entry = {**GOOD_K["basis"][0][0], **change}
    return {**GOOD_K, "basis": [[{k: v for k, v in entry.items() if v is not None}]]}


@pytest.mark.parametrize("data", [
    pytest.param("{not json", id="invalid-json"),
    pytest.param(k_entry(pair=None), id="no-pair"),
    pytest.param(k_entry(num="x"), id="num-text"),
    pytest.param(k_entry(pair=[0, 1, 2]), id="three-indices"),
    pytest.param({**GOOD_K, "n": "abc"}, id="n-text"),
    pytest.param({**GOOD_K, "field": {"prime": "x"}}, id="prime-text"),
    pytest.param(k_entry(num=1.5), id="num-float"),  # once read as 1: a certified profile of another K
    pytest.param(k_entry(den=2.7), id="den-float"),
    pytest.param({**GOOD_K, "n": 4.9}, id="n-float"),
])
def test_malformed_k_file_exits_2(tmp_path, capsys, data):
    path = tmp_path / "k.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run(capsys, ["hilbert", "--k-file", str(path), "--format", "csv"])
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInputError"


def test_k_file_fraction_over_prime_field(tmp_path, capsys):
    # over F_p a value num/den is num * den^-1 mod p (1/2 is 51 mod 101), and a
    # denominator divisible by p is invalid input
    results = []
    for value in ({"num": 1, "den": 2}, {"num": 51}, {"num": 1, "den": 101}):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"n": 4, "field": {"prime": 101}, "basis": [[{"pair": [0, 1], **value}]]}))
        results.append(run(capsys, ["hilbert", "--k-file", str(path), "--q-max", "0", "--format", "csv"]))
    assert results[0] == results[1] == (0, "q,dim_Wq,bound,certified\n0,5,1,true\n", "")
    code, out, err = results[2]
    assert code == 2 and out == "" and "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidInputError"


def hyperplane_k_file(tmp_path):
    """The hyperplane K at n=6 (dim W_3 = 4, certified by kernel vectors) as a --k-file."""
    width, path = comb(6, 2), tmp_path / "k.json"
    K = subspace_from_rows(6, [[int(i == j) for i in range(width)] for j in range(1, width)])
    path.write_text(json.dumps(K.to_json()))
    return str(path)


# SHA-256 of each command's stdout; between them the commands reach every
# certificate mode.  Stdout is the contract, so no change inside the rank layer
# may move a digest.
GOLDEN = [
    (["hilbert", "--weyman", "7", "--format", "json"],  # mirrored blocks, spare rows
     "7639d5c284459da0881442355ee081120855984eadc8b56cd29ed1904cfc521c"),
    (["hilbert", "--random", "6", "9", "3", "--format", "json"],
     "8bd1777de278072cd883dab8b06b4759e27f79872967b0e829378ae771cb7c78"),
    (["hilbert", "--weyman", "5", "--field", "rational", "--format", "json"],  # rational-exact
     "31e6aa58694071c2a7be244c161014866e392d2243dd521352716b864b491f4b"),
    (["hilbert", "--weyman", "6", "--field", "prime", "--primes", "65537", "--format", "json"],
     "284c48e2f0c50eee97af856de2f9ec9e8caf8b3a32690ba4ba231ec9e22818d8"),
    (["resonance", "--heisenberg", "2"],
     "e6fa040eea99aa0b035d74e2927a56286a1a77b11efb386f2e44f13933d92296"),
    (["hilbert", "--k-file", None, "--format", "json"],  # kernel-verified
     "e21a7dcdaa079c92cfb2fe3bb80fd08f084fdf505cd68d8f2c790b1220babf55"),
    (["resonance", "--k-file", None, "--format", "json"],  # kernel-verified, with a witness
     "891f9875125729de633c82f2c304b02b678f4b0641f305df51397fbbd38f4301"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_stdout(tmp_path, capsys, threads):
    k_file = hyperplane_k_file(tmp_path)
    for argv, digest in GOLDEN:
        argv = [k_file if a is None else a for a in argv] + ["--threads", threads]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_cache_flag(tmp_path, capsys):
    cachedir = tmp_path / "cache"
    args = ["hilbert", "--weyman", "5", "--cache", str(cachedir), "--format", "csv"]
    code1, out1, _ = run(capsys, args)
    assert code1 == 0
    assert (cachedir / "rank-cache.jsonl").exists()
    code2, out2, _ = run(capsys, args)
    assert out1 == out2


def test_cache_key_holds_no_cap_and_no_unread_prime(capsys, tmp_path):
    def records(directory):
        return sum(1 for line in (directory / "rank-cache.jsonl").read_text().splitlines() if line)

    def same_stdout(directory, argv, variants):
        outs = set()
        for extra in variants:
            code, out, err = run(capsys, argv + ["--cache", str(directory), *extra])
            assert code == 0 and err == "", extra
            outs.add(out)
        assert len(outs) == 1

    weyman = ["hilbert", "--weyman", "5", "--format", "json"]  # three degrees
    # the automatic mode runs no oracle: three caps, one record per degree
    same_stdout(tmp_path / "auto", weyman, [["--oracle-cap", cap] for cap in ("2000", "0", "5")])
    assert records(tmp_path / "auto") == 3
    # a forced field reads no prime beyond its own
    same_stdout(tmp_path / "prime", weyman + ["--field", "prime"], [["--primes", "65537,7"], ["--primes", "65537,11"]])
    assert records(tmp_path / "prime") == 3
    # the cap bounds the oracle's work, and a hit does none: a rational record written
    # under the default cap answers a cap of 3, which fails without a cache
    rational = weyman + ["--field", "rational"]
    same_stdout(tmp_path / "rational", rational, [["--primes", "7"], ["--primes", "11", "--oracle-cap", "3"]])
    assert records(tmp_path / "rational") == 3
    code, out, err = run(capsys, rational + ["--oracle-cap", "3"])
    assert code == 1 and out == "" and json.loads(err)["error"] == "ResourceLimitError"


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

    # the hyperplane K at n=6: dim W_3 = 4, a rank of 500 under the bound 504
    argv = ["hilbert", "--k-file", hyperplane_k_file(tmp_path), "--format", "json"]
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
