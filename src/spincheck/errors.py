"""Shared exception types.

DomainError flags arguments outside an operation's stated domain (bad ranks,
non-integral exponents, labels that fail dominance, ...).  PoleError flags an
exact evaluation hitting a vanishing denominator.  SizeGuardError flags a
request past a configured size bound, such as the bound on dim S ox S of the
spectrum check; its message names the size and the bound.
"""

from __future__ import annotations


class DomainError(ValueError):
    """A value violates an operation's precondition."""


class PoleError(ZeroDivisionError):
    """A denominator vanishes at the requested evaluation point."""


class SizeGuardError(RuntimeError):
    """The request exceeds a configured size bound."""
