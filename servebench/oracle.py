"""Answer oracle: every response of a session, checked after the window.

References are computed in the benchmark process, independently of the
server:

* ``translate`` — interpreted, cache-bypassing TDQM
  (``tdqm_translate(..., interpret=True)``) over the spec active at that
  stream position: the same mapping up to the order of ∧/∨ operands (a
  cached translation of a commuted query may list them in another
  order), the same exactness, and a ``text`` that renders the ``json``;
* commuted variants of one warm-pool entry — byte-identical responses
  apart from the echoed ``id``;
* ``mediate`` — the rows of ``Mediator.answer_direct`` (Eq. 1), compared
  as a multiset with the served Eq. 2 rows;
* ``reload`` — the expected digest, ``changed`` and at least one
  invalidated cache entry.

``corrupt=True`` falsifies the reference of the first window request, so
a run that checks its answers must fail (the oracle's self-test).
"""

from __future__ import annotations

import json
import re

from workloads import SOURCE_NAME, Plan, Request

_ID_PREFIX = re.compile(rb'^\{"id": \d+, ')


def canonical(node: object) -> object:
    """A query's JSON form with ∧/∨ operands in a fixed order."""
    if isinstance(node, dict):
        out = {key: canonical(value) for key, value in node.items()}
        if node.get("$") in ("and", "or"):
            out["children"] = sorted(out["children"], key=lambda c: json.dumps(c, sort_keys=True))
        return out
    if isinstance(node, list):
        return [canonical(item) for item in node]
    return node


class Oracle:
    def __init__(self, corrupt: bool = False):
        from repro.obs.stats import builtin_mediator
        from repro.rules.declarative import spec_from_dict
        from repro.rules.library import K_AMAZON
        from specs import reload_spec

        self.specs = {
            "builtin": K_AMAZON,
            "A": spec_from_dict(reload_spec("A")),
            "B": spec_from_dict(reload_spec("B")),
        }
        self.mediator = builtin_mediator({"K_Amazon"})
        self.corrupt = corrupt
        self._translations: dict[tuple[str, str], dict] = {}
        self._answers: dict[str, list[str]] = {}

    # -- references -----------------------------------------------------------

    def translation(self, text: str, spec: str) -> dict:
        key = (text, spec)
        ref = self._translations.get(key)
        if ref is None:
            from repro.core.json_io import query_to_json
            from repro.core.parser import parse_query
            from repro.core.tdqm import tdqm_translate

            result = tdqm_translate(parse_query(text), self.specs[spec], interpret=True)
            mapping = json.loads(json.dumps(query_to_json(result.mapping)))
            ref = {SOURCE_NAME: {"json": canonical(mapping), "exact": result.exact}}
            self._translations[key] = ref
        return ref

    def answer(self, text: str) -> list[str]:
        ref = self._answers.get(text)
        if ref is None:
            from repro.core.parser import parse_query

            rows = self.mediator.answer_direct(parse_query(text))
            ref = sorted(
                json.dumps(
                    [
                        {"view": view, "index": index, "row": dict(pairs)}
                        for view, index, pairs in row
                    ],
                    sort_keys=True,
                )
                for row in rows
            )
            self._answers[text] = ref
        return ref

    def _check_mappings(self, served: object, request: Request) -> str | None:
        from repro.core.json_io import query_from_json
        from repro.core.printer import to_text

        reference = self.translation(request.query, request.spec)
        if not isinstance(served, dict) or served.keys() != reference.keys():
            return "mappings name the wrong sources"
        for source, ref in reference.items():
            got = served[source]
            if canonical(got.get("json")) != ref["json"] or got.get("exact") != ref["exact"]:
                return f"{source} mapping differs from interpreted TDQM"
            if to_text(query_from_json(got["json"])) != got.get("text"):
                return f"{source} mapping text does not render its json"
        return None

    def _falsify(self, request: Request) -> None:
        if request.op == "translate":
            ref = self.translation(request.query, request.spec)[SOURCE_NAME]
            ref["exact"] = not ref["exact"]
        elif request.op == "mediate":
            self.answer(request.query).append("[]")

    # -- checks ---------------------------------------------------------------

    def check(self, plan: Plan, responses: list[bytes]) -> list[tuple[int, str]]:
        """``(request index, problem)`` for every response that fails."""
        requests = plan.requests
        if self.corrupt:
            first = next(r for r in requests[plan.window_start :] if r.op != "reload")
            self._falsify(first)
        problems: list[tuple[int, str]] = []
        variants: dict[int, bytes] = {}
        for position, (request, raw) in enumerate(zip(requests, responses)):
            problem = self.check_one(request, raw, position + 1)
            if problem is None and request.group >= 0:
                body = _ID_PREFIX.sub(b"", raw)
                if variants.setdefault(request.group, body) != body:
                    problem = "commuted variant answered differently"
            if problem is not None:
                problems.append((position, f"request {position + 1} ({request.op}): {problem}"))
        return problems

    def check_one(self, request: Request, raw: bytes, request_id: int) -> str | None:
        try:
            response = json.loads(raw)
        except ValueError:
            return "response is not JSON"
        if response.get("id") != request_id or response.get("op") != request.op:
            return "response does not echo the request id and op"
        if response.get("ok") is not True:
            return f"not ok: {response.get('error')}"
        if request.op == "translate":
            return self._check_mappings(response.get("mappings"), request)
        elif request.op == "mediate":
            rows = sorted(json.dumps(row, sort_keys=True) for row in response.get("rows", []))
            if rows != self.answer(request.query):
                return "rows differ from Mediator.answer_direct"
            if response.get("count") != len(rows) or response.get("complete") is not True:
                return "count or completeness is wrong"
        elif request.op == "reload":
            reports = response.get("reload") or [{}]
            report = reports[0]
            expected = self.specs[request.reload_to].content_digest
            if report.get("digest") != expected or report.get("changed") is not True:
                return "reload did not install the expected spec"
            if not report.get("invalidated", 0) > 0:
                return "reload invalidated no cache entry"
        return None
