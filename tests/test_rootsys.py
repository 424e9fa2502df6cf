import pytest

from dedarr import rootsys
from dedarr.errors import UnknownName

from conftest import cartan_positive_roots, exponent_polynomial


def test_builtin_metadata():
    for name, rank, n, h in [("H2", 2, 5, 5), ("H3", 3, 15, 10),
                             ("H4", 4, 60, 30)]:
        data = rootsys.builtin(name)
        assert data.rank == rank
        assert data.n_positive == n
        assert data.coxeter_number == h
        assert data.arrangement.ell == rank
        assert data.arrangement.n == n


def test_builtin_unknown():
    with pytest.raises(UnknownName):
        rootsys.builtin("H5")


def test_h2_matrix():
    A = rootsys.builtin("H2").arrangement
    assert A.columns == (
        ((1, 0), (0, 0)),
        ((0, 0), (1, 0)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (0, 1)),
    )


def test_h3_h4_columns():
    h3 = rootsys.builtin("H3").arrangement
    assert h3.columns[0] == ((1, 0), (0, 0), (0, 0))
    assert h3.columns[-1] == ((1, 1), (0, 2), (0, 1))
    h4 = rootsys.builtin("H4").arrangement
    # final column as printed: the highest root 3t+2, 4t+2, 3t+1, 2t
    assert h4.columns[-1] == ((2, 3), (2, 4), (1, 3), (0, 2))


def test_transcription_matches_reflection_closure():
    for name in ("H2", "H3", "H4"):
        assert rootsys.verify_transcription(name)


def test_positive_root_counts():
    assert len(rootsys.generated_positive_roots("H2")) == 5
    assert len(rootsys.generated_positive_roots("H3")) == 15
    assert len(rootsys.generated_positive_roots("H4")) == 60


@pytest.mark.parametrize("name, count, highest", [
    ("A3", 6, (1, 1, 1)), ("B3", 9, (1, 2, 2)), ("C3", 9, (2, 2, 1)),
    ("D4", 12, (1, 2, 1, 1)), ("G2", 6, (3, 2)),
    ("F4", 24, (2, 3, 4, 2)), ("E6", 36, (1, 2, 2, 3, 2, 1)),
    ("E7", 63, (2, 2, 3, 4, 3, 2, 1)), ("E8", 120, (2, 3, 4, 6, 5, 4, 3, 2))])
def test_cartan_positive_roots(name, count, highest):
    # the reflection closure gives every positive root once, the highest
    # root the largest
    roots = cartan_positive_roots(name)
    assert len(roots) == len(set(roots)) == count
    assert max(roots, key=sum) == highest
    assert all(min(v) >= 0 for v in roots)


def test_exponents_factor_the_unit_constituent():
    # the unit-ideal constituent splits over the exponents of the system
    from dedarr import charquasi as cq
    from dedarr import ring as rg
    exponents = {"H2": [1, 4], "H3": [1, 5, 9]}
    for name, exps in exponents.items():
        data = rootsys.builtin(name)
        q = cq.constituents(data.arrangement)
        unit = rg.Ideal.unit(data.arrangement.ring)
        assert q.constituents[unit] == exponent_polynomial(exps)
        # exponents pair up to the Coxeter number
        assert sorted(data.coxeter_number - e for e in exps) == exps
