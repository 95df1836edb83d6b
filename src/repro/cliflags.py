"""Uniform execution-flag surface across the CLI.

Every command that executes registry work shares one flag vocabulary —
``--backend``, ``--workers``, ``--seed``, ``--max-states`` — mirroring
the fields of
:class:`~repro.request.RunRequest`.  A command either *accepts* a flag
(via the ``add_*_flag`` helpers below, so metavars/choices/help never
drift between parsers) or *explicitly rejects* it with the uniform
:func:`rejection_message` text saying why that execution axis does not
apply — silently ignoring an execution flag is the one behaviour this
module exists to rule out.

The accept/reject matrix is pinned by ``tests/test_cliflags.py``:

=============  =========  =========  ======  ============
command        --backend  --workers  --seed  --max-states
=============  =========  =========  ======  ============
verify         reject     reject     reject  accept
sweep          reject     accept     reject  reject
fuzz           reject     accept     accept  accept
bench          reject     reject     accept  accept
=============  =========  =========  ======  ============

Exhaustive walks run on the one in-process packed walker, so no command
offers an exploration backend; ``--workers`` drains farm cells
(``sweep``, ``fuzz --out``).
"""

from __future__ import annotations

import argparse
from typing import Any, Optional, Sequence

__all__ = [
    "rejection_message",
    "reject_flag",
    "positive_workers",
    "add_workers_flag",
    "add_seed_flag",
    "add_max_states_flag",
]


def positive_workers(text: str) -> int:
    """``--workers`` operand parser: a positive int or a usage error.

    Shared by every command that accepts ``--workers`` so that
    ``--workers 0`` (or a negative count, or junk) dies with the same
    one-line message everywhere — the text mirrors the
    :class:`~repro.errors.ConfigurationError` the backends raise for
    the same mistake, pinned by ``tests/test_cliflags.py``.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive int, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be a positive int, got {value!r}"
        )
    return value


def rejection_message(flag: str, command: str, reason: str) -> str:
    """The pinned error text for a rejected execution flag."""
    return f"{flag} is not supported by `repro {command}`: {reason}"


class _RejectFlag(argparse.Action):
    """Errors out with the uniform rejection text when the flag is used."""

    def __init__(
        self,
        option_strings: Sequence[str],
        dest: str,
        command: str = "",
        reason: str = "",
        **kwargs: Any,
    ) -> None:
        kwargs.setdefault("nargs", "?")  # swallow any operand too
        kwargs.setdefault("help", argparse.SUPPRESS)
        super().__init__(option_strings, dest, **kwargs)
        self._command = command
        self._reason = reason

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: Any,
        option_string: Optional[str] = None,
    ) -> None:
        parser.error(
            rejection_message(
                option_string or self.option_strings[0],
                self._command,
                self._reason,
            )
        )


def reject_flag(
    parser: argparse.ArgumentParser, flag: str, command: str, reason: str
) -> None:
    """Register ``flag`` as explicitly rejected (uniform error text)."""
    parser.add_argument(flag, action=_RejectFlag, command=command, reason=reason)


def add_workers_flag(
    parser: argparse.ArgumentParser,
    default: Optional[int] = None,
    help_text: Optional[str] = None,
) -> None:
    parser.add_argument(
        "--workers",
        type=positive_workers,
        default=default,
        metavar="N",
        help=help_text or "worker processes",
    )


def add_seed_flag(
    parser: argparse.ArgumentParser, help_text: Optional[str] = None
) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help=help_text
        or "root RNG seed; the single source of every derived RNG",
    )


def add_max_states_flag(
    parser: argparse.ArgumentParser, help_text: Optional[str] = None
) -> None:
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help=help_text or "distinct-state budget",
    )
