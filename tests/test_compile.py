"""Unit tests for the compiled translate hot path (repro.perf.compile).

Three layers under test:

* **interning** (``repro.perf.intern``) — hash-consing collapses equal
  shapes to one weakly-held object per process, never changing equality;
* **compiled rules** (``repro.perf.compile``) — per-rule closures with a
  per-assignment memo, bit-identical to the linear ``match_rule``;
* **the linear oracle** — ``Matcher(spec.rules)`` and
  ``tdqm_translate(..., interpret=True)`` share no memoized state with
  the compiled path, so they can serve as its equivalence oracle.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.ast import C, conj
from repro.core.errors import RuleError, StaleIndexError
from repro.core.matching import Matcher, match_rule
from repro.core.parser import parse_query
from repro.core.tdqm import tdqm_translate
from repro.perf import (
    TranslationCache,
    clear_intern_table,
    compile_rule,
    intern_constraint,
    intern_query,
    intern_stats,
    is_interned,
)
from repro.rules import K_AMAZON, builtin_specifications
from repro.rules.dsl import V, cpat, rule, table_lookup
from repro.workloads.generator import (
    simple_conjunction,
    synthetic_spec,
    vocabulary,
)
from repro.workloads.paper_queries import example1_query, figure2_q1, qbook

ATTRS = vocabulary(8)


def _fresh_spec(name="K_compile_test"):
    return synthetic_spec(
        groups=[("a0", "a1")], singletons=ATTRS, name=name
    )


class TestIntern:
    def setup_method(self):
        clear_intern_table()

    def test_equal_parses_become_one_object(self):
        text = '[ln = "Clancy"] and ([fn = "Tom"] or [pyear = 1994])'
        first = intern_query(parse_query(text))
        second = intern_query(parse_query(text))
        assert first is second
        assert is_interned(first)

    def test_interning_preserves_equality(self):
        query = parse_query('[a = 1] and not [b = 2]')
        assert intern_query(query) == query

    def test_subtrees_are_shared(self):
        shared = '[ln = "Clancy"] or [fn = "Tom"]'
        left = intern_query(parse_query(f'{shared} and [pyear = 1994]'))
        right = intern_query(parse_query(f'{shared} and [pyear = 2001]'))
        assert left.children[0] is right.children[0]

    def test_commuted_trees_stay_distinct(self):
        # a ∧ b and b ∧ a are equal *theories* but different trees; the
        # interner must not conflate them (that is the fingerprint's job).
        ab = intern_query(conj([C("a", "=", 1), C("b", "=", 2)]))
        ba = intern_query(conj([C("b", "=", 2), C("a", "=", 1)]))
        assert ab is not ba

    def test_constraint_interning(self):
        one = intern_constraint(C("ln", "=", "Clancy"))
        two = intern_constraint(C("ln", "=", "Clancy"))
        assert one is two

    def test_table_is_weak(self):
        query = intern_query(parse_query('[zz_unique = 901] and [zz_other = 902]'))
        nodes_live = intern_stats()["nodes"]
        del query
        gc.collect()
        assert intern_stats()["nodes"] < nodes_live

    def test_stats_count_hits_and_misses(self):
        before = intern_stats()
        # Hold the first result: the table is weak, so a discarded node
        # would be collected before the second call could hit it.
        held = intern_query(C("fresh_attr", "=", "v1"))
        again = intern_query(C("fresh_attr", "=", "v1"))
        assert again is held
        after = intern_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1


class TestCompiledRule:
    def test_single_pattern_bit_identical(self):
        spec = _fresh_spec()
        target = spec.get_rule("R_a3")
        universe = [C("a3", "=", 7), C("a4", "=", 1), C("a3", "=", 9)]
        compiled = compile_rule(target)
        pools = [[c for c in universe if c.lhs.attr == "a3"]]
        expect = match_rule(target, universe)
        got = compiled.matchings(pools)
        assert [str(m.emission) for m in got] == [str(m.emission) for m in expect]
        assert [m.constraints for m in got] == [m.constraints for m in expect]
        assert [m.exact for m in got] == [m.exact for m in expect]

    def test_multi_pattern_bit_identical(self):
        spec = _fresh_spec()
        pair = spec.get_rule("R_a0_a1")
        universe = [C("a0", "=", 3), C("a1", "=", 4), C("a0", "=", 5)]
        compiled = compile_rule(pair)
        pools = [
            [c for c in universe if c.lhs.attr == "a0"],
            [c for c in universe if c.lhs.attr == "a1"],
        ]
        expect = match_rule(pair, universe)
        got = compiled.matchings(pools)
        assert [str(m.emission) for m in got] == [str(m.emission) for m in expect]

    def test_memo_serves_repeat_assignments(self):
        compiled = compile_rule(_fresh_spec().get_rule("R_a2"))
        pool = [C("a2", "=", 1)]
        first = compiled.matchings([pool])
        second = compiled.matchings([pool])
        assert compiled.memo_size() == 1
        # The memoized Matching is the same object — a dictionary hit.
        assert second[0] is first[0]

    def test_rejected_match_is_memoized_as_no_match(self):
        veto = rule(
            "R_veto",
            patterns=[cpat("a0", "=", V("X"))],
            let={"Y": table_lookup({}, lambda b: b["X"])},  # always missing
            emit=lambda b: C("t", "=", b["Y"]),
        )
        compiled = compile_rule(veto)
        pool = [C("a0", "=", 1)]
        assert compiled.matchings([pool]) == []
        assert compiled.matchings([pool]) == []
        assert compiled.memo_size() == 1

    def test_bad_emission_raises_rule_error(self):
        bad = rule(
            "R_bad",
            patterns=[cpat("a0", "=", V("X"))],
            emit=lambda b: "not a query",  # type: ignore[arg-type,return-value]
        )
        with pytest.raises(RuleError):
            compile_rule(bad).matchings([[C("a0", "=", 1)]])


class TestMatcherModes:
    def test_compiled_equals_interpreted_on_builtins(self):
        queries = [example1_query(), figure2_q1(), qbook()]
        for spec in builtin_specifications().values():
            for query in queries:
                compiled = tdqm_translate(query, spec.matcher())
                oracle = tdqm_translate(query, Matcher(spec.rules))
                assert compiled == oracle, (spec.name, str(query))

    def test_compiled_matcher_goes_stale_on_mutation(self):
        spec = _fresh_spec("K_stale_compiled")
        matcher = spec.matcher()
        universe = frozenset([C("a0", "=", 1)])
        matcher.potential(universe)
        template = spec.get_rule("R_a2")
        spec.add_rule(
            rule("extra", patterns=template.patterns, emit=template.emit)
        )
        # Growing the universe forces an index probe, which must refuse.
        with pytest.raises(StaleIndexError):
            matcher.potential(universe | {C("a1", "=", 2)})
        # A matcher rebuilt from the spec sees the new rule set.
        assert spec.matcher().potential(universe)

    def test_prematch_memo_round_trip(self):
        spec = _fresh_spec("K_prematch")
        index = spec.compiled_index()
        universe = frozenset(simple_conjunction(ATTRS, 0).constraints())
        first = Matcher(spec.rules, index=index).potential(universe)
        assert index.prematch_get(universe) is not None
        second = Matcher(spec.rules, index=index).potential(universe)
        assert [str(m.emission) for m in second] == [
            str(m.emission) for m in first
        ]

    def test_precompile_builds_every_closure(self):
        spec = _fresh_spec("K_precompile")
        index = spec.compiled_index()
        assert index.precompile() == len(spec.rules)


class TestInterpretEscapeHatch:
    QUERY = '[ln = "Clancy"] and [fn = "Tom"]'

    def test_tdqm_interpret_is_bit_identical(self):
        query = parse_query(self.QUERY)
        assert tdqm_translate(query, K_AMAZON, interpret=True) == tdqm_translate(
            query, K_AMAZON
        )

    def test_interpret_oracle_leaves_memos_untouched(self):
        from repro.obs.trace import tracing

        spec = _fresh_spec("K_oracle_memo_free")
        index = spec.compiled_index()
        query = simple_conjunction(ATTRS, 0)
        cache = TranslationCache()
        with tracing("oracle") as tracer:
            tdqm_translate(query, spec, cache=cache, interpret=True)
            tdqm_translate(query, spec, cache=cache, interpret=True)
        # The oracle must not share memoized state with the compiled path:
        # no cache traffic, no index probe, no prematch memo entry.
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert not [name for name in tracer.counters if name.startswith("perf.")]
        assert index.prematch_get(frozenset(query.constraints())) is None


class TestStatsCounters:
    def test_stats_surface_compile_counters(self):
        from repro.obs.export import counters_table
        from repro.obs.stats import collect_stats

        # A value no other test translates: K_Amazon's index is a
        # process-wide singleton, so a shared universe would be served
        # from the prematch memo and skip the dispatch counters.
        report = collect_stats(
            '[ln = "StatsCounterProbe"] and [fn = "Unique"]',
            {"K_Amazon": builtin_specifications()["K_Amazon"]},
        )
        table = "\n".join(counters_table(report.tracer))
        assert "perf.compile.dispatches" in table
        assert "perf.compile.prematch.misses" in table
