"""Built-in example systems with analytic flow maps.

Each entry pairs a vector field with its closed-form family so commands and
tests can cross-check the numeric route against an oracle.  The six systems
cover the autonomous/non-autonomous and linear/nonlinear quadrants:

    riccati        x' = x^2          blows up in finite time
    zero           x' = 0            everything is the identity
    exp_scalar     x' = x            the basic one-parameter group
    affine_scalar  x' = x + 1        affine with a particular solution
    rotation       x' = Jx in R^2    norm-preserving, never escapes
    shear          x' = t x          linear but genuinely time-dependent
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DomainSpec, FlowFamily, VectorField, closed_form_family

__all__ = ["CatalogEntry", "CATALOG", "names", "get"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    rhs: tuple[str, ...]
    family_components: tuple[str, ...]
    field_predicate: str | None = None
    family_predicate: str | None = None

    @property
    def n(self) -> int:
        return len(self.rhs)

    def field(self) -> VectorField:
        spec = DomainSpec(self.n, space_predicate=self.field_predicate)
        return VectorField.from_strings(list(self.rhs), spec)

    def family(self) -> FlowFamily:
        return closed_form_family(
            self.n, list(self.family_components), predicate=self.family_predicate
        )


CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in (
        CatalogEntry(
            name="riccati",
            rhs=("x1^2",),
            family_components=("a1/(1 + (sigma - tau)*a1)",),
            family_predicate="1 - (tau - sigma)*a1",
        ),
        CatalogEntry(
            name="zero",
            rhs=("0",),
            family_components=("a1",),
        ),
        CatalogEntry(
            name="exp_scalar",
            rhs=("x1",),
            family_components=("exp(tau - sigma)*a1",),
        ),
        CatalogEntry(
            name="affine_scalar",
            rhs=("x1 + 1",),
            family_components=("exp(tau - sigma)*(a1 + 1) - 1",),
        ),
        CatalogEntry(
            name="rotation",
            rhs=("-x2", "x1"),
            family_components=(
                "cos(tau - sigma)*a1 - sin(tau - sigma)*a2",
                "sin(tau - sigma)*a1 + cos(tau - sigma)*a2",
            ),
        ),
        CatalogEntry(
            name="shear",
            rhs=("t*x1",),
            family_components=("exp((tau^2 - sigma^2)/2)*a1",),
        ),
    )
}


def names() -> tuple[str, ...]:
    return tuple(CATALOG)


def get(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry '{name}'; choose from {', '.join(CATALOG)}") from None
