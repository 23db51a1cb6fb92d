"""Machine-readable output for ``repro check`` findings.

Two consumers beyond a human reading stdout:

- **SARIF 2.1.0** (:func:`to_sarif`) for code-scanning UIs -- one run,
  one driver (``repro-check``), one result per violation, with the rule
  metadata carried in ``tool.driver.rules``;
- **GitHub workflow commands** (:func:`github_annotations`) -- the
  ``::error file=...,line=...::message`` lines that make CI findings
  show up inline on the pull-request diff.

Both consume the same :class:`~repro.check.lint.Violation` records the
linter produces, so every REP0xx/REP1xx finding flows through one
serialization path.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.check.lint import Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def to_sarif(
    violations: Sequence[Violation],
    rule_rows: Iterable[tuple[str, str, str]] = (),
) -> dict[str, Any]:
    """A SARIF 2.1.0 document for ``violations``.

    ``rule_rows`` is the ``(code, name, description)`` catalogue; rules
    that appear in findings but not in the catalogue are synthesized
    from the finding itself so the document always validates.
    """
    rules: dict[str, dict[str, Any]] = {
        code: {
            "id": code,
            "name": name,
            "shortDescription": {"text": description},
        }
        for code, name, description in rule_rows
    }
    for violation in violations:
        rules.setdefault(
            violation.code,
            {
                "id": violation.code,
                "name": violation.rule,
                "shortDescription": {"text": violation.rule},
            },
        )
    rule_ids = sorted(rules)
    results = [
        {
            "ruleId": violation.code,
            "ruleIndex": rule_ids.index(violation.code),
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(1, violation.line),
                            "startColumn": max(1, violation.col + 1),
                        },
                    }
                }
            ],
        }
        for violation in violations
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "informationUri": (
                            "https://github.com/memcached-elmem/repro"
                        ),
                        "rules": [rules[code] for code in rule_ids],
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(
    path: str,
    violations: Sequence[Violation],
    rule_rows: Iterable[tuple[str, str, str]] = (),
) -> None:
    """Serialize :func:`to_sarif` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_sarif(violations, rule_rows), handle, indent=2)
        handle.write("\n")


def github_annotations(violations: Sequence[Violation]) -> list[str]:
    """``::error`` workflow-command lines, one per violation.

    Newlines inside messages are URL-encoded per the workflow-command
    escaping rules; GitHub renders them back.
    """

    def escape(text: str) -> str:
        return (
            text.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )

    return [
        f"::error file={violation.path},line={max(1, violation.line)},"
        f"col={max(1, violation.col + 1)},"
        f"title={violation.code} {violation.rule}::"
        + escape(violation.message)
        for violation in violations
    ]


def violations_json(
    violations: Sequence[Violation],
) -> list[dict[str, Any]]:
    """Plain-dict form of ``violations`` for ``repro check --json``."""
    return [
        {
            "code": violation.code,
            "rule": violation.rule,
            "path": violation.path,
            "line": violation.line,
            "col": violation.col,
            "message": violation.message,
        }
        for violation in violations
    ]
