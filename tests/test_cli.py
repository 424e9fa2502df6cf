import io
import json
import time

import pytest

from dedarr import cli

from conftest import seed7_probe


def run(argv):
    out = io.StringIO()
    rc = cli.main(argv, out=out)
    return rc, out.getvalue()


@pytest.fixture()
def nonprincipal_file(tmp_path):
    data = {"ring": {"type": "quadratic", "d": -5},
            "name": "nonprincipal",
            "columns": [[[2, 0], [1, -1]], [[1, 1], [3, 0]]]}
    path = tmp_path / "nonprincipal.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def gaussian_file(tmp_path):
    data = {"ring": {"type": "quadratic", "d": -1},
            "columns": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]],
                        [[1, 0], [0, 1]], [[1, 0], [0, -1]]]}
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_rootsystem_constituents():
    rc, text = run(["rootsystem", "H2", "--constituents"])
    assert rc == 0
    assert "period: 1" in text
    assert "t^2 - 5*t + 4" in text


def test_rootsystem_verify():
    rc, text = run(["rootsystem", "H3", "--verify"])
    assert rc == 0
    assert "transcription check: ok" in text


def test_eval(nonprincipal_file):
    rc, text = run(["eval", nonprincipal_file, "--ideal", "[[2,0],[1,-1]]"])
    assert rc == 0
    assert text.strip() == "0"


def test_period_and_constituents(nonprincipal_file):
    rc, text = run(["period", nonprincipal_file])
    assert rc == 0 and "p2^1*q3^1" in text
    rc, text = run(["constituents", nonprincipal_file])
    assert rc == 0
    assert "f[1] = t^2 - t" in text
    assert "f[p2^1*q3^1] = t^2 - 4*t" in text


def test_constituents_json_roundtrip(nonprincipal_file):
    rc, text = run(["constituents", nonprincipal_file, "--json"])
    assert rc == 0
    payload = json.loads(text)
    assert isinstance(payload["timing_ms"], int)
    from dedarr.quasipoly import QuasiPolynomial
    q = QuasiPolynomial.from_json_dict(payload)
    from dedarr import charquasi as cq
    A = cq.arrangement_from_json(
        json.load(open(nonprincipal_file, encoding="utf-8")))
    assert q == cq.constituents(A)


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_constituents_factor_the_period_alone(flags, tmp_path, monkeypatch,
                                              nonprincipal_file):
    # each kappa's exponents are read off the period's primes: after the
    # period's norm no integer is factored, and every printed form is the
    # one a fresh factorization gives
    from dedarr import charquasi as cq
    from dedarr import ring as rg
    from dedarr.rootsys import builtin
    h3 = tmp_path / "h3.json"
    h3.write_text(json.dumps({
        "ring": {"type": "quadratic", "d": 5},
        "columns": [[list(x) for x in c]
                    for c in builtin("H3").arrangement.columns]}))
    real = rg._factor_int
    calls = []

    def spy(n):
        calls.append(n)
        return real(n)

    for path in (str(h3), nonprincipal_file):
        A = cq.arrangement_from_json(json.load(open(path, encoding="utf-8")))
        rho = cq.lcm_period(A)
        labels = [rg.format_factored(rg.Ideal(A.ring, k.hnf))
                  for k in rho.divisors()]
        monkeypatch.setattr(rg, "_factor_int", spy)
        calls.clear()
        rc, text = run(["constituents", path] + flags)
        monkeypatch.setattr(rg, "_factor_int", real)
        assert rc == 0
        assert calls[calls.index(rho.norm) + 1:] == [], calls
        if flags:
            got = [c["kappa_factored"]
                   for c in json.loads(text)["constituents"]]
        else:
            got = [line[2:line.index("]")]
                   for line in text.splitlines()[1:]]
        assert got == labels


def test_determinism(nonprincipal_file):
    rc1, t1 = run(["constituents", nonprincipal_file])
    rc2, t2 = run(["constituents", nonprincipal_file])
    assert rc1 == rc2 == 0 and t1 == t2
    rc1, t1 = run(["layers", nonprincipal_file])
    rc2, t2 = run(["layers", nonprincipal_file])
    assert rc1 == rc2 == 0 and t1 == t2


def test_layers_and_dot(nonprincipal_file, tmp_path):
    dot_path = str(tmp_path / "poset.dot")
    rc, text = run(["layers", nonprincipal_file, "--dot", dot_path])
    assert rc == 0
    assert "layers: 5" in text
    dot = open(dot_path, encoding="utf-8").read()
    assert dot.startswith("digraph")
    assert dot.count("->") == 4

    rc, text = run(["layers", nonprincipal_file,
                    "--kappa", "[[2,0],[1,-1]]"])
    assert rc == 0
    assert "layers: 3" in text


@pytest.mark.parametrize("where", ["missing directory", "directory",
                                   "empty path"])
def test_layers_dot_to_unwritable_path_exits_2(where, nonprincipal_file,
                                               tmp_path, capsys):
    # the DOT file is written before the listing, so nothing is printed
    path = {"missing directory": str(tmp_path / "missing" / "poset.dot"),
            "directory": str(tmp_path), "empty path": ""}[where]
    rc, text = run(["layers", nonprincipal_file, "--dot", path])
    assert rc == 2 and text == ""
    assert "cannot write" in capsys.readouterr().err


def test_verify(gaussian_file):
    rc, text = run(["verify", gaussian_file, "--max-norm", "9"])
    assert rc == 0
    assert "0 mismatches" in text


def test_verify_prints_fresh_factorizations(gaussian_file):
    # each ideal keeps the primes it was built from; the printed forms
    # must be those of a factorization from scratch, byte for byte
    from dedarr import ring as rg
    ZI = rg.quadratic(-1)
    rc, text = run(["verify", gaussian_file, "--max-norm", "40"])
    assert rc == 0
    heads = [line.split(":")[0] for line in text.splitlines()[:-1]]
    fresh = [f"N={a.norm} {rg.format_factored(rg.Ideal(ZI, a.hnf))}"
             for a in rg.ideals_of_norm_up_to(ZI, 40)]
    assert heads == fresh


@pytest.fixture()
def z_plane_file(tmp_path):
    path = tmp_path / "z_plane.json"
    path.write_text(json.dumps({"ring": {"type": "Z"},
                                "columns": [[1, 2], [3, 1]]}))
    return str(path)


# the default verify bound of an ell = 2 file over Z: the grids of the
# ideals up to norm 310 hold 9,978,435 points, up to 311 over 10^7
Z_PLANE_BOUND = 310


def test_verify_bound_past_the_budget_exits_3(z_plane_file, capsys):
    # a --max-norm past the default bound is refused before any
    # constituent or oracle work, naming the bound that fits
    start = time.monotonic()
    rc, text = run(["verify", z_plane_file, "--max-norm", "100000"])
    assert rc == 3 and text == ""
    assert time.monotonic() - start < 5
    err = capsys.readouterr().err
    assert "--max-norm 100000" in err and f" is {Z_PLANE_BOUND}" in err
    rc, text = run(["verify", z_plane_file, "--max-norm",
                    str(Z_PLANE_BOUND + 1)])
    assert rc == 3 and text == ""


def test_verify_at_the_default_bound_is_the_default(z_plane_file):
    rc, default = run(["verify", z_plane_file])
    assert rc == 0
    assert default.endswith(
        f"verified {Z_PLANE_BOUND} ideals, 0 mismatches\n")
    assert run(["verify", z_plane_file, "--max-norm",
                str(Z_PLANE_BOUND)]) == (0, default)


def test_verify_enumerates_the_ideals_once(z_plane_file, gaussian_file,
                                           monkeypatch):
    # the ideals admitted by the default bound are the ones swept, filtered
    # by --max-norm: no second enumeration up to the bound
    calls = []
    enumerate_ideals = cli.ideals_of_norm_up_to

    def spy(ring, bound):
        calls.append(bound)
        return enumerate_ideals(ring, bound)

    monkeypatch.setattr(cli, "ideals_of_norm_up_to", spy)
    for argv in (["verify", z_plane_file],
                 ["verify", z_plane_file, "--max-norm", "40"],
                 ["verify", gaussian_file, "--max-norm", "9"]):
        calls.clear()
        rc, text = run(argv)
        assert rc == 0 and text.endswith(" 0 mismatches\n")
        assert len(calls) == 1, (argv, calls)


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_verify_bound_below_one_exits_2(bound, z_plane_file):
    rc, text = run(["verify", z_plane_file, "--max-norm", bound])
    assert rc == 2 and text == ""


def test_layers_dot_over_budget_prints_nothing(tmp_path):
    # 1002 layers: the cover test's square passes the Hasse budget of 10^6
    path = tmp_path / "thousand.json"
    path.write_text(json.dumps({"ring": {"type": "Z"},
                                "columns": [[1001]]}))
    rc, text = run(["layers", str(path), "--dot", "-"])
    assert rc == 3 and text == ""
    rc, text = run(["layers", str(path)])
    assert rc == 0 and "layers: 1002" in text


def test_verify_default_bound_finishes(tmp_path):
    # ell = 1: the bound follows the oracle budget, sum N(a) <= 10^7
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"ring": {"type": "quadratic", "d": -1},
                                "columns": [[[3, 0]]]}))
    start = time.monotonic()
    rc, text = run(["verify", str(path)])
    assert rc == 0
    assert time.monotonic() - start < 30
    assert text.endswith(" 0 mismatches\n")
    norms = [int(line.split()[0][2:]) for line in text.splitlines()[:-1]]
    assert sum(n for n in norms) <= 10 ** 7
    assert 3000 < len(norms) and max(norms) > 4000


def test_minimality(nonprincipal_file):
    rc, text = run(["minimality", nonprincipal_file])
    assert rc == 0
    assert "minimum: p2^1*q3^1" in text
    assert text.count("witness for") == 2


def test_localize(nonprincipal_file):
    rc, text = run(["localize", nonprincipal_file, "--invert", "[[2,0]]"])
    assert rc == 0
    assert "period: q3^1" in text or "period: p3^1" in text


def test_exit_codes(tmp_path, nonprincipal_file):
    rc, _ = run(["period", str(tmp_path / "missing.json")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run(["period", str(bad)])
    assert rc == 2
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"ring": {"type": "Z"},
                                "columns": [[0, 0]]}))
    rc, _ = run(["period", str(zero)])
    assert rc == 2
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"ring": "Z", "columns": [[1]]}))
    rc, _ = run(["period", str(ring)])
    assert rc == 2
    rc, _ = run(["rootsystem", "H9"])
    assert rc == 2
    rc, _ = run(["eval", nonprincipal_file, "--ideal", "[[0,0]]"])
    assert rc == 2
    rc, _ = run(["nosuchcommand"])
    assert rc == 2


def test_boolean_entries_exit_2(tmp_path, nonprincipal_file):
    path = tmp_path / "bools.json"
    path.write_text(json.dumps({"ring": {"type": "Z"},
                                "columns": [[True, 2], [1, False]]}))
    for cmd in ("period", "constituents", "layers"):
        rc, text = run([cmd, str(path)])
        assert rc == 2 and text == ""
    rc, _ = run(["eval", nonprincipal_file, "--ideal", "[true]"])
    assert rc == 2


def test_internal_fault_exits_4(monkeypatch, nonprincipal_file):
    # a non-integral quotient inside the library is a bug, not bad input
    from dedarr import charquasi as cq
    from dedarr import ring as rg

    def broken(A):
        two = rg.Ideal.principal(A.ring, A.ring.from_int(2))
        return rg.Ideal.unit(A.ring) / two

    monkeypatch.setattr(cq, "lcm_period", broken)
    rc, _ = run(["period", nonprincipal_file])
    assert rc == 4


def test_empty_arrangement_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ring": {"type": "quadratic", "d": -5},
                                "ell": 2, "columns": []}))
    rc, text = run(["constituents", str(path)])
    assert rc == 0
    assert "period: 1" in text
    assert "f[1] = t^2" in text


def test_period_tables_no_minor(tmp_path, monkeypatch, nonprincipal_file):
    # dedarr period reads the lcm period off the flat lattice: with no
    # minor table allowed it prints the period line of constituents
    from dedarr import charquasi as cq
    from dedarr.rootsys import builtin
    h3 = tmp_path / "h3.json"
    h3.write_text(json.dumps({
        "ring": {"type": "quadratic", "d": 5},
        "columns": [[list(x) for x in c]
                    for c in builtin("H3").arrangement.columns]}))
    tops = []
    minor_tables = cq._minor_tables

    def spy_tables(A, top):
        tops.append(top)
        return minor_tables(A, top)

    for path in (str(h3), nonprincipal_file):
        rc, text = run(["constituents", path])
        assert rc == 0
        monkeypatch.setattr(cq, "_minor_tables", spy_tables)
        monkeypatch.setattr(cq, "MINOR_TABLE_BUDGET", 0)
        rc, out = run(["period", path])
        monkeypatch.undo()
        assert rc == 0 and tops == []
        assert out == text.splitlines(keepends=True)[0]
        assert out.startswith("period: ")


def test_budget_exit_code(tmp_path, monkeypatch, capsys):
    cols = [[1, k] for k in range(1, 25)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"ring": {"type": "Z"}, "columns": cols}))
    rc, _ = run(["constituents", str(path), "--path", "subset"])
    assert rc == 3
    # the subset walk's tables: six columns of rank 2 need 6*2 1-minors
    # and 15 2-minors
    from dedarr import charquasi as cq
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"ring": {"type": "Z"}, "columns": cols[:6]}))
    monkeypatch.setattr(cq, "MINOR_TABLE_BUDGET", 27)
    rc, out = run(["constituents", str(path), "--path", "subset"])
    assert rc == 0 and out != ""
    monkeypatch.setattr(cq, "MINOR_TABLE_BUDGET", 26)
    capsys.readouterr()
    rc, out = run(["constituents", str(path), "--path", "subset"])
    assert rc == 3 and out == ""
    assert "needs 27 minors" in capsys.readouterr().err


def test_huge_coset_count_exits_3(tmp_path):
    # the ambient flat cuts 2^31 layers from H_0 and from H_1: the count is
    # compared with the layer budget before any of them is listed
    big = 2 ** 31
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"ring": {"type": "Z"},
                                "columns": [[big, big], [-big, big],
                                            [big, 3]]}))
    for argv in (["layers", str(path)],
                 ["constituents", str(path), "--path", "layers"]):
        start = time.monotonic()
        rc, out = run(argv)
        assert rc == 3 and out == ""
        assert time.monotonic() - start < 10


# the 6 x 16 Z probe of random entries in [-5, 5]: its lcm period has
# 4,893 digits
PROBE_6X16 = [
    [-5, 2, 0, -3, 4, -4], [2, -5, -2, -1, -3, -2], [1, 1, 2, -4, -3, 2],
    [1, 3, -1, -3, 1, 3], [-1, 1, 0, 5, 1, -2], [-3, -4, -3, -3, -2, 5],
    [-2, -5, 2, 4, -3, -1], [-1, -5, -3, 1, 3, 0], [4, 4, 0, -3, 3, 4],
    [5, 5, -5, 2, 5, 3], [1, 1, 1, 1, -4, 2], [5, 1, -5, -2, -4, -2],
    [2, -3, -4, 0, 4, -5], [-4, -5, 4, -3, 3, -4], [0, 4, -5, -4, -2, 4],
    [1, -3, 5, -1, 0, 4]]


def test_huge_integers_exit_3(tmp_path, capsys):
    # the refused norm (4,401 digits) and the refused period (4,893) are
    # past Python's 4,300-digit limit on printing an int: the budget
    # messages give their bit lengths, so the run exits 3
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"ring": {"type": "quadratic", "d": -1},
                                "columns": [[[10 ** 2200, 0]]]}))
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps({"ring": {"type": "Z"},
                                 "columns": PROBE_6X16}))
    for argv in (["period", str(line)], ["constituents", str(line)],
                 ["eval", str(line), "--ideal", "[6]"],
                 ["layers", str(line)], ["period", str(probe)]):
        capsys.readouterr()
        start = time.monotonic()
        rc, out = run(argv)
        err = capsys.readouterr().err
        assert rc == 3 and out == "", argv
        assert err.startswith("budget exceeded: ") and "-bit integer>" in err
        assert time.monotonic() - start < 10


def test_unfactorable_period_exits_before_layers_or_walk(tmp_path,
                                                         monkeypatch):
    # the 4 x 14 probe's period has a 702-bit norm, past the factoring
    # budget.  Every route reads the period off the flat lattice, so it
    # builds the flats first, but must refuse the period before any layer
    # is refined or any minor is tabled
    from dedarr import charquasi as cq
    from dedarr import layers as ly
    assert seed7_probe(6, 16) == PROBE_6X16
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"ring": {"type": "Z"},
                                "columns": seed7_probe(4, 14)}))
    tops = []
    minor_tables = cq._minor_tables

    def spy_tables(A, top):
        tops.append(top)
        return minor_tables(A, top)

    def no_layers(*args):
        raise AssertionError("LayerPoset built for an unusable period")

    monkeypatch.setattr(cq, "_minor_tables", spy_tables)
    monkeypatch.setattr(ly, "LayerPoset", no_layers)
    p = str(path)
    for argv in (["constituents", p],  # auto: n = 14 takes the layers
                 ["constituents", p, "--path", "subset"],
                 ["constituents", p, "--path", "layers"],
                 ["minimality", p], ["layers", p], ["period", p]):
        start = time.monotonic()
        rc, out = run(argv)
        assert rc == 3 and out == "", argv
        assert tops == [], argv
        assert time.monotonic() - start < 10


def test_library_value_error_propagates(monkeypatch, nonprincipal_file):
    # only typed input errors exit 2; a ValueError from inside the library
    # is a fault and must not be reported as bad input
    from dedarr import charquasi as cq

    def broken(A):
        return pow(2, -1, 4)

    monkeypatch.setattr(cq, "lcm_period", broken)
    with pytest.raises(ValueError):
        run(["period", nonprincipal_file])


def test_overlong_integer_literal_exits_2(tmp_path, nonprincipal_file):
    # json reads an integer past Python's digit limit as a plain ValueError
    path = tmp_path / "long.json"
    path.write_text('{"ring": {"type": "Z"}, "columns": [[' + "7" * 5001
                    + "]]}")
    rc, text = run(["period", str(path)])
    assert rc == 2 and text == ""
    rc, text = run(["eval", nonprincipal_file, "--ideal",
                    "[" + "3" * 5001 + "]"])
    assert rc == 2 and text == ""


def test_large_quadratic_d(tmp_path):
    # d is checked by factoring |d|: a squarefree d near 10^18 answers at
    # once, and a d past 2^63 exceeds the factoring budget
    cols = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]
    path = tmp_path / "big_d.json"
    path.write_text(json.dumps({"ring": {"type": "quadratic",
                                         "d": 10 ** 18 + 3},
                                "columns": cols}))
    start = time.monotonic()
    rc, text = run(["period", str(path)])
    assert rc == 0 and text == "period: p2^2 hnf=[[2, 0], [0, 2]]\n"
    assert time.monotonic() - start < 10
    path.write_text(json.dumps({"ring": {"type": "quadratic",
                                         "d": 2 ** 63 + 5},
                                "columns": cols}))
    rc, text = run(["period", str(path)])
    assert rc == 3 and text == ""


# sha256 of stdout, recorded before the layer path's cover relation was
# stored once (children in place of the (flat, hyperplane) -> flat map)
LAYER_PATH_STDOUT = {
    ("H3", "layers"):
        "c15fa26ca39cf0eb1d850f35119fa96fb0610ca3dd39672b11e796c66659728c",
    ("H3", "layers --dot -"):
        "7ee037db033286d639b23ad66792d09d105193c8939e5d00dd569b5683f66517",
    ("H3", "constituents --path layers"):
        "a36aa70e2c092a7b4bb62351e569d993c99f00271fcdd64f225eec0fa35cbfa9",
    ("H3", "minimality"):
        "341bda4fef3beaa483ad55791aa8fb1cf5e0d6f7ad7926a3c13544cefd50e87a",
    ("nonprincipal", "layers"):
        "f83c3e1f72c9f284aa2746b0393fb2b7dc878eb3d167b62040985620bb962066",
    ("nonprincipal", "layers --dot -"):
        "39e92131ff177173ee0fde8478c52cd4e04f72fd9ca4f08fecedbd3f88521447",
    ("nonprincipal", "constituents --path layers"):
        "1677949ea0f8afbe29e97715f2a896d1607fd12b8fec3a3bc5bf54bed963daa1",
    ("nonprincipal", "minimality"):
        "89c6dba4a8bd0238dbc4efac450589e4e0da97f5e030d29fb78fe725450a73bc",
}


def test_layer_path_stdout_matches_recorded_hashes(tmp_path,
                                                   nonprincipal_file):
    import hashlib
    from dedarr.rootsys import builtin
    h3 = tmp_path / "h3.json"
    h3.write_text(json.dumps({
        "ring": {"type": "quadratic", "d": 5},
        "columns": [[list(x) for x in c]
                    for c in builtin("H3").arrangement.columns]}))
    files = {"H3": str(h3), "nonprincipal": nonprincipal_file}
    for (name, command), digest in LAYER_PATH_STDOUT.items():
        words = command.split()
        rc, text = run(words[:1] + [files[name]] + words[1:])
        assert rc == 0, (name, command)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, \
            (name, command)
