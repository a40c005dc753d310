"""Built-in catalogue of the eleven dimension-2 dendriform dialgebras.

The first six (rb-1 .. rb-6) are the dialgebras reachable from weight-zero
Rota-Baxter operators on a rank-two space; the other five (extra-1 ..
extra-5) are dialgebras known to lie outside that image.  All products not
listed are zero.

Two entries are stored in a typo-corrected reading and flagged as such:

* extra-2 appears in the source list as ``e2 > e1 = e2, e1 < e1 = e1,
  e1 < e2 = e2``, which violates the first dialgebra axiom at the basis
  triple (0, 1, 0).  The minimal correction ``e2 < e1 = e2`` (making <
  the unital truncated-polynomial product and > zero) satisfies all
  axioms and duplicates no other entry, and is what we store.
* extra-4 appears as ``e1 < e1 = e2, e1 < e1 = -e2`` (the same product
  assigned twice).  We store ``e1 < e1 = e2, e1 > e1 = -e2``, which
  satisfies the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import RATIONALS
from .structures import DendriformDi, make_dendriform_di


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    structure: DendriformDi
    typo_corrected: bool = False


def _entry(name, prec, succ, typo_corrected=False) -> CatalogueEntry:
    return CatalogueEntry(name, make_dendriform_di(RATIONALS, 2, prec, succ, name=name),
                          typo_corrected)


_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)


def builtin_catalogue() -> list:
    """The eleven entries, rb-1..rb-6 then extra-1..extra-5."""
    return [
        _entry("rb-1", {}, {}),
        _entry("rb-2", {(1, 1, 0): _HALF}, {(1, 1, 0): _HALF}),
        _entry("rb-3", {(1, 0, 1): 1}, {(0, 0, 0): 1, (0, 1, 1): 1}),
        _entry("rb-4", {(1, 1, 0): 1}, {}),
        _entry("rb-5", {(0, 0, 0): 1, (1, 0, 1): 1}, {(0, 1, 1): 1}),
        _entry("rb-6", {}, {(1, 1, 0): 1}),
        _entry("extra-1", {(0, 0, 0): 1}, {(1, 1, 1): 1}),
        _entry("extra-2", {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}, {},
               typo_corrected=True),
        _entry("extra-3", {(0, 1, 1): -1}, {(0, 0, 0): 1, (0, 1, 1): 1}),
        _entry("extra-4", {(0, 0, 1): 1}, {(0, 0, 1): -1},
               typo_corrected=True),
        _entry("extra-5", {(0, 0, 1): _THIRD}, {(0, 0, 1): Fraction(2, 3)}),
    ]


def catalogue_entry(name: str) -> CatalogueEntry:
    for entry in builtin_catalogue():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalogue entry named {name!r}")
