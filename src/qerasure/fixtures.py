"""The bundled example codes, used as regression anchors; each is built here alone.

Four names are registered:

  rains-subcode   the five-qubit single-ket code from signed cyclic orbit sums
  rains-union     the six-component union of that code with its images under
                  the X-pattern transform and cyclic qubit shifts
  gbp             the ((4,4,2)) code of paired bitstrings
  gbp-union       its union with the image under a Y on the last qubit

The two base codes are sums of amplitude terms (codes.ket_from_terms);
fixture_union_components is the one record of which names are unions.
The cyclic shift convention is position j -> j+1 mod n throughout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import QuantumCode, ket_from_terms, transform_code
from .states import CodeTransform, cyclic_shift
from .unions import union_code

FIXTURE_NAMES = ("rains-subcode", "rains-union", "gbp", "gbp-union")


def _cyclic_orbit(bits: str) -> list[str]:
    """Distinct cyclic rotations, rotating position j to j+1."""
    out, s = [], bits
    for _ in range(len(bits)):
        if s not in out:
            out.append(s)
        s = s[-1] + s[:-1]
    return out


def fixture_rains_subcode() -> QuantumCode:
    """The five-qubit single-ket code built from signed cyclic orbit sums.

    The generator is |00000> minus the orbit sum of |00011>, plus the orbit
    sum of |00101>, minus the orbit sum of |01111>, normalized.  Every
    weight-one and weight-two Pauli has zero expectation in it.
    """
    terms = [(1.0, "00000")]
    terms += [(-1.0, b) for b in _cyclic_orbit("00011")]
    terms += [(1.0, b) for b in _cyclic_orbit("00101")]
    terms += [(-1.0, b) for b in _cyclic_orbit("01111")]
    ket = ket_from_terms(5, terms)
    return QuantumCode(n=5, basis=(ket / np.linalg.norm(ket))[:, None], label="rains-subcode")


def fixture_gbp_code() -> QuantumCode:
    """The four-qubit, four-dimensional code spanned by paired bitstrings."""
    pairs = [("0000", "1111"), ("0110", "1001"), ("0101", "1010"), ("1100", "0011")]
    kets = [ket_from_terms(4, [(1.0, a), (1.0, b)]) for a, b in pairs]
    return QuantumCode(n=4, basis=np.column_stack([v / np.linalg.norm(v) for v in kets]),
                       label="gbp")


def rains_component_transform(i: int) -> CodeTransform:
    """The i-th union component transform: X on qubits 2,3,4, then i cyclic shifts."""
    return CodeTransform(5, perm=cyclic_shift(5, i), locals=["I", "I", "X", "X", "X"])


def gbp_pair_transform() -> CodeTransform:
    """The local transform pairing the gbp code with its orthogonal image."""
    return CodeTransform(4, locals=["I", "I", "I", "Y"])


@lru_cache(maxsize=None)
def rains_orbit_codes() -> tuple[QuantumCode, ...]:
    """The six mutually orthogonal single-ket components of the rains union."""
    base = fixture_rains_subcode()
    out = [base]
    for i in range(5):
        out.append(transform_code(base, rains_component_transform(i),
                                  label=f"pi^{i}.tau({base.label})"))
    return tuple(out)


@lru_cache(maxsize=None)
def get_fixture(name: str) -> QuantumCode:
    components = fixture_union_components(name)  # KeyError for an unknown name
    if components is not None:
        return union_code(components, label=name)[0]
    return fixture_rains_subcode() if name == "rains-subcode" else fixture_gbp_code()


def fixture_union_components(name: str) -> tuple[QuantumCode, ...] | None:
    """The component codes of a union fixture, or None for plain codes."""
    if name == "rains-union":
        return rains_orbit_codes()
    if name == "gbp-union":
        base = fixture_gbp_code()
        return (base, transform_code(base, gbp_pair_transform(), label="tau(gbp)"))
    if name in FIXTURE_NAMES:
        return None
    raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
