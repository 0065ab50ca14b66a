"""Named example codes used as regression anchors.

Four names are registered:

  rains-subcode   the five-qubit single-ket code from signed cyclic orbit sums
  rains-union     the six-component union of that code with its images under
                  the X-pattern transform and cyclic qubit shifts
  gbp             the ((4,4,2)) code of paired bitstrings
  gbp-union       its union with the image under a Y on the last qubit

The cyclic shift convention is position j -> j+1 mod n throughout.
"""

from __future__ import annotations

from functools import lru_cache

from .codes import QuantumCode, fixture_gbp_code, fixture_rains_subcode, transform_code
from .states import CodeTransform, cyclic_shift
from .unions import union_code

FIXTURE_NAMES = ("rains-subcode", "rains-union", "gbp", "gbp-union")


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
    if name == "rains-subcode":
        return fixture_rains_subcode()
    if name == "gbp":
        return fixture_gbp_code()
    if name in ("rains-union", "gbp-union"):
        return union_code(fixture_union_components(name), label=name)[0]
    raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")


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
