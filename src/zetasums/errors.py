"""Error types shared across the package."""


class ZetaSumsError(Exception):
    """Base class for all library errors."""


class DomainError(ZetaSumsError):
    """Parameter outside the operation's domain (or within 1e-12 of its boundary)."""


class NoClosedFormError(ZetaSumsError):
    """Requested a closed form that does not exist.

    Deliberately not an approximation fallback: callers that want a numeric
    value must ask for direct evaluation explicitly.
    """


class TermBudgetError(ZetaSumsError):
    """Series evaluation exceeded the term budget (ZS_TERM_BUDGET, default 1e7)."""
