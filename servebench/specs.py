"""The two declarative K_Amazon specifications ``mediate_reload`` swaps.

Both restate Figure 3's rules R1-R9 in the declarative form a ``reload``
request carries (R1's two renames become two rules).  They differ only in
one rule's ``doc``, so their content digests differ while every answer is
the same; each reload therefore swaps the spec and invalidates the cache
without changing what clients see.
"""

from __future__ import annotations

import copy

from repro.conversions.codes import CATEGORY_TO_SUBJECT

_NO_TEXT_OPS = {"supports_near": False, "supports_phrase": False}


def _rename(name: str, source: str, target: str) -> dict:
    return {
        "name": name,
        "match": [{"attr": source, "op": "=", "bind": "N"}],
        "where": [{"cond": "value_is", "vars": ["N"]}],
        "emit": {"attr": target, "op": "=", "value": "$N"},
        "exact": True,
    }


def _text_rule(name: str, attr: str, emit: dict) -> dict:
    return {
        "name": name,
        "match": [{"attr": attr, "op": "contains", "bind": "P1"}],
        "let": [{"var": "RW", "rewrite": "$P1", "capability": _NO_TEXT_OPS}],
        "emit": emit,
        "exact": {"from": "RW"},
    }


_SPEC_A = {
    "name": "K_Amazon",
    "target": "Amazon",
    "rules": [
        _rename("R1a", "publisher", "publisher"),
        _rename("R1b", "id-no", "isbn"),
        {
            "name": "R2",
            "match": [
                {"attr": "ln", "op": "=", "bind": "L"},
                {"attr": "fn", "op": "=", "bind": "F"},
            ],
            "where": [{"cond": "value_is", "vars": ["L", "F"]}],
            "let": [{"var": "N", "fn": "ln_fn_to_name", "args": ["$L", "$F"]}],
            "emit": {"attr": "author", "op": "=", "value": "$N"},
            "exact": True,
        },
        {
            "name": "R3",
            "match": [{"attr": "ln", "op": "=", "bind": "L"}],
            "where": [{"cond": "value_is", "vars": ["L"]}],
            "emit": {"attr": "author", "op": "=", "value": "$L"},
            "exact": True,
        },
        _text_rule("R4", "ti", {"attr": "ti-word", "op": "contains", "value": "$RW"}),
        {
            "name": "R5",
            "match": [{"attr": "ti", "op": "=", "bind": "T"}],
            "where": [{"cond": "value_is", "vars": ["T"]}],
            "emit": {"attr": "title", "op": "starts", "value": "$T"},
        },
        {
            "name": "R6",
            "match": [
                {"attr": "pyear", "op": "=", "bind": "Y"},
                {"attr": "pmonth", "op": "=", "bind": "M"},
            ],
            "where": [{"cond": "value_is", "vars": ["Y", "M"]}],
            "let": [{"var": "D", "fn": "month_period", "args": ["$Y", "$M"]}],
            "emit": {"attr": "pdate", "op": "during", "value": "$D"},
            "exact": True,
        },
        {
            "name": "R7",
            "match": [{"attr": "pyear", "op": "=", "bind": "Y"}],
            "where": [{"cond": "value_is", "vars": ["Y"]}],
            "let": [{"var": "D", "fn": "year_period", "args": ["$Y"]}],
            "emit": {"attr": "pdate", "op": "during", "value": "$D"},
            "exact": True,
        },
        _text_rule(
            "R8",
            "kwd",
            {
                "any": [
                    {"attr": "ti-word", "op": "contains", "value": "$RW"},
                    {"attr": "subject-word", "op": "contains", "value": "$RW"},
                ]
            },
        ),
        {
            "name": "R9",
            "match": [{"attr": "category", "op": "=", "bind": "X"}],
            "where": [{"cond": "value_is", "vars": ["X"]}],
            "let": [
                {
                    "var": "S",
                    "table": dict(CATEGORY_TO_SUBJECT),
                    "key": "$X",
                }
            ],
            "emit": {"attr": "subject", "op": "=", "value": "$S"},
        },
    ],
}

_SPEC_B = copy.deepcopy(_SPEC_A)
_SPEC_B["rules"][-1]["doc"] = "Category code -> subject heading (variant B)."


def reload_spec(label: str) -> dict:
    """The declarative spec dict a ``reload`` request installs (A or B)."""
    return copy.deepcopy(_SPEC_A if label == "A" else _SPEC_B)
