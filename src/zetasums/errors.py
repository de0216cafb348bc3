"""Error types shared across the package."""

__all__ = [
    "ZetaSumsError", "DomainError", "UnattainableError", "NoClosedFormError",
    "TermBudgetError",
]


class ZetaSumsError(Exception):
    """Base class for all library errors."""


class DomainError(ZetaSumsError):
    """Parameter outside the operation's domain (or within 1e-12 of its boundary)."""


class UnattainableError(DomainError):
    """The requested tolerance lies below what double precision can certify
    for these inputs; a looser tolerance may succeed."""


class NoClosedFormError(ZetaSumsError):
    """Requested a closed form that does not exist.

    Deliberately not an approximation fallback: evaluate falls back to a
    series route only under method=None, never for an explicit CLOSED_FORM.
    """


class TermBudgetError(ZetaSumsError):
    """Series evaluation exceeded the term budget (ZS_TERM_BUDGET, default 1e7)."""
