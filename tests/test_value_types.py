"""The contract of the value types: the behaviour of a frozen dataclass.

Each type is built from the same fields three ways (positionally, by
keyword, and with its defaults where it has them), and is held to the
repr, equality, hashing, immutability, pickling and copying of a frozen
dataclass of those fields; HalfInt is also ordered by its value.
"""

import copy
import pickle

import pytest

from poincarewave import (
    DiracAmplitude,
    EulerAngles,
    FourMomentum,
    GroupPoint,
    HalfInt,
    HypersphIndex,
    PoincareBispinor,
    RadialParams,
    RadialPoint,
    SpinConfig,
)

_P = FourMomentum(1.25, 0.0, 0.0, 0.75, 1.0)
_RP = RadialParams(0.5, 0.5, 1 + 0j, 0j, HalfInt(1), HalfInt(1))
_ANG = EulerAngles(0.1, 0.2, 1.0, 2.0)

_P_REPR = "FourMomentum(E=1.25, px=0.0, py=0.0, pz=0.75, m=1.0)"
_RP_REPR = ("RadialParams(kappa=0.5, kappa_dot=0.5, C1=(1+0j), C2=0j, l=HalfInt(twice=1), "
            "l_dot=HalfInt(twice=1))")
_ANG_REPR = "EulerAngles(phi=0.1, eps=0.2, theta=1.0, tau=2.0, phi2=0.0, eps2=0.0)"

# (type, field names, field values, other field values, repr)
CASES = [
    (HalfInt, ("twice",), (3,), (-3,), "HalfInt(twice=3)"),
    (FourMomentum, ("E", "px", "py", "pz", "m"), (1.25, 0.0, 0.0, 0.75, 1.0),
     (1.25, 0.75, 0.0, 0.0, 1.0), _P_REPR),
    (DiracAmplitude, ("components", "kind", "r"), ((1 + 0j, 0j, 0.5 + 0j, 0.25j), "u", 1),
     ((1 + 0j, 0j, 0.5 + 0j, 0.25j), "v", 1),
     "DiracAmplitude(components=((1+0j), 0j, (0.5+0j), 0.25j), kind='u', r=1)"),
    (RadialParams, ("kappa", "kappa_dot", "C1", "C2", "l", "l_dot"),
     (0.5, 0.5, 1 + 0j, 0j, HalfInt(1), HalfInt(1)),
     (0.5, 0.5, 1 + 0j, 0j, HalfInt(1), HalfInt(3)), _RP_REPR),
    (RadialPoint, ("z",), (0.5,), (1.5,), "RadialPoint(z=0.5)"),
    (EulerAngles, ("phi", "eps", "theta", "tau", "phi2", "eps2"), (0.1, 0.2, 1.0, 2.0, 0.0, 0.0),
     (0.1, 0.2, 1.0, 2.5, 0.0, 0.0), _ANG_REPR),
    (HypersphIndex, ("l", "m"), (HalfInt(1), HalfInt(-1)),
     (HalfInt(1), HalfInt(1)),
     "HypersphIndex(l=HalfInt(twice=1), m=HalfInt(twice=-1))"),
    (GroupPoint, ("x", "ang"), ((0.1, 0.2, 0.3, 0.4), _ANG),
     ((0.1, 0.2, 0.3, 0.4), EulerAngles()),
     f"GroupPoint(x=(0.1, 0.2, 0.3, 0.4), ang={_ANG_REPR})"),
    (SpinConfig, ("p", "r", "rp", "radius", "sign_pair"), (_P, 1, _RP, 1.0, "-+"),
     (_P, 1, _RP, 1.0, "+-"),
     f"SpinConfig(p={_P_REPR}, r=1, rp={_RP_REPR}, radius=1.0, sign_pair='-+')"),
    (PoincareBispinor, ("psi1", "psi2", "psi1_dot", "psi2_dot"), (1j, 2.0, 3 + 1j, -0j),
     (1j, 2.0, 3 + 1j, 0.5j),
     "PoincareBispinor(psi1=1j, psi2=2.0, psi1_dot=(3+1j), psi2_dot=(-0-0j))"),
]

_IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=_IDS)
def test_repr_is_the_dataclass_text(cls, names, values, other, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, other, text):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b
    assert tuple(getattr(a, name) for name in names) == values
    assert cls.__match_args__ == names


def test_defaults():
    assert EulerAngles() == EulerAngles(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert EulerAngles(theta=1.0, tau=2.0, phi=0.1, eps=0.2) == _ANG
    assert SpinConfig(_P, 1, _RP, 1.0) == SpinConfig(_P, 1, _RP, 1.0, "+-")
    assert SpinConfig(_P, 1, _RP, 1.0).sign_pair == "+-"


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=_IDS)
def test_equality_and_hash_by_fields(cls, names, values, other, text):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and hash(a) == hash(b) == hash(values)
    changed = cls(*other)
    assert changed != a and not changed == a
    assert len({a, b, changed}) == 2
    # never equal to its fields, nor to a value of another type
    assert a != values
    for other_cls, _, other_values, _, _ in CASES:
        if other_cls is not cls:
            assert a != other_cls(*other_values)


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, other, text):
    a = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(*values)


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=_IDS)
def test_pickle_and_copy_keep_the_fields(cls, names, values, other, text):
    a = cls(*values)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and repr(b) == text


def test_off_shell_momentum_survives_pickling():
    p = FourMomentum.off_shell(2.0, 0.0, 0.0, 0.75, 1.0)
    assert not p.is_on_shell()
    q = pickle.loads(pickle.dumps(p))
    assert q == p and repr(q) == "FourMomentum(E=2.0, px=0.0, py=0.0, pz=0.75, m=1.0)"


def test_half_int_ordering():
    values = [HalfInt(t) for t in (3, -1, 0, 2, -5)]
    assert sorted(values) == [HalfInt(t) for t in (-5, -1, 0, 2, 3)]
    a, b = HalfInt(1), HalfInt(2)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a > b or a >= b or b < a or b <= a or a < a or a > a)
    with pytest.raises(TypeError):
        HalfInt(1) < 1
