"""Word-level similarity, domain weights, and constraint scoring."""

import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import args_for, bundled_clauses
from lexsel import (
    ConceptId,
    DomainWeights,
    MatcherError,
    MatchScore,
    ProjectionSlot,
    Role,
    SelectionConfig,
    SelectionConstraint,
    SlotStatus,
    VerbSense,
    build_inter_rep,
    candidate_slots,
    con_sim,
    constraint_degrees,
    constraint_satisfaction,
    disambiguate,
    inexact_match,
    translate,
    word_sim_breakdown,
)
from lexsel.bundled import load_bundled_store
from lexsel.matcher import _score


def slot(domain: str, concept: str, status=SlotStatus.OBL) -> ProjectionSlot:
    return ProjectionSlot(
        domain=domain, status=status, concept=ConceptId(domain, concept), args=()
    )


def proj(*slots: ProjectionSlot) -> dict[str, ProjectionSlot]:
    return {s.domain: s for s in slots}


UNIFORM = DomainWeights()


class TestDomainWeights:
    def test_default_is_uniform(self):
        assert UNIFORM.weight("anything") == 1

    def test_from_json(self):
        w = DomainWeights.from_json('{"ch-of-state": 3, "default": 0.5}')
        assert w.weight("ch-of-state") == 3
        assert w.weight("other") == Fraction(1, 2)

    def test_float_weights_read_exactly(self):
        w = DomainWeights.from_json('{"a": 0.1}')
        assert w.weight("a") == Fraction(1, 10)

    def test_json_numbers_read_exactly(self):
        # as floats both weights underflowed to 0 and the document read as all-zero
        w = DomainWeights.from_json('{"ch-of-state": 1e-400, "causation": 1e-400, "default": 0}')
        assert w.weight("ch-of-state") == w.weight("causation") == Fraction(1, 10**400)
        start = time.perf_counter()
        with pytest.raises(MatcherError, match="cannot read weight"):
            DomainWeights.from_json('{"a": 1e-999999999}')
        assert time.perf_counter() - start < 1

    def test_rejects_negative(self):
        with pytest.raises(MatcherError):
            DomainWeights(weights={"a": Fraction(-1)})

    def test_rejects_non_numeric(self):
        with pytest.raises(MatcherError):
            DomainWeights.from_json('{"a": "heavy"}')

    def test_rejects_bad_json(self):
        with pytest.raises(MatcherError):
            DomainWeights.from_json("nope")

    def test_rejects_deeply_nested_document(self):
        with pytest.raises(MatcherError, match="weights document is not valid JSON"):
            DomainWeights.from_json('{"a":' * 5000 + "1" + "}" * 5000)

    @pytest.mark.parametrize(
        "value", [0.1, float("nan"), float("inf"), "x", None, True, Decimal("0.5")]
    )
    def test_rejects_inexact_weights(self, value):
        # a float weight made every concept score a float; "x" and None leaked TypeError
        with pytest.raises(MatcherError, match="weight for domain 'causation' must be an int"):
            DomainWeights({"causation": value})
        with pytest.raises(MatcherError, match="default weight must be an int"):
            DomainWeights(default_weight=value)

    def test_rejects_a_weights_object_that_is_not_a_mapping(self):
        with pytest.raises(MatcherError, match="weights must map domain names"):
            DomainWeights(weights=[("causation", 1)])

    def test_accepts_ints_and_fractions(self):
        w = DomainWeights({"causation": 2, "ch-of-state": Fraction(1, 3)}, default_weight=0)
        assert w.weight("causation") == 2 and w.weight("other") == 0

    @pytest.mark.parametrize("text", ["inf", "1e999999999", "1e-999999999"])
    def test_rejects_non_finite_or_huge_weight_at_once(self, text):
        start = time.perf_counter()
        with pytest.raises(MatcherError, match="cannot read weight"):
            DomainWeights.from_json(json.dumps({"a": text}))
        assert time.perf_counter() - start < 1


class TestWordSimilarity:
    def test_identical_projections(self, store):
        slots = proj(slot("ch-of-state", "%separate-in-duan-state"))
        assert word_sim_breakdown(slots, slots, UNIFORM, store)[0] == 1

    def test_disjoint_domains(self, store):
        a = proj(slot("ch-of-state", "%separate-in-duan-state"))
        b = proj(slot("causation", "%cause"))
        assert word_sim_breakdown(a, b, UNIFORM, store)[0] == 0

    def test_single_shared_domain(self, store):
        a = proj(slot("ch-of-state", "%change-of-integrity"))
        b = proj(slot("ch-of-state", "%separate-in-duan-state"))
        assert word_sim_breakdown(a, b, UNIFORM, store)[0] == Fraction(4, 5)

    def test_one_sided_domain_dilutes(self, store):
        a = proj(
            slot("ch-of-state", "%change-of-integrity"),
            slot("causation", "%cause"),
        )
        b = proj(slot("ch-of-state", "%separate-in-duan-state"))
        # causation contributes 0 over a union of two domains
        assert word_sim_breakdown(a, b, UNIFORM, store)[0] == Fraction(2, 5)

    def test_empty_projections(self, store):
        assert word_sim_breakdown({}, {}, UNIFORM, store)[0] == 0

    def test_weight_scale_invariance(self, store):
        a = proj(
            slot("ch-of-state", "%change-of-integrity"),
            slot("causation", "%cause"),
        )
        b = proj(
            slot("ch-of-state", "%separate-in-duan-state"),
            slot("causation", "%cause"),
        )
        w1 = DomainWeights(weights={"ch-of-state": Fraction(2), "causation": Fraction(1)})
        w2 = DomainWeights(weights={"ch-of-state": Fraction(6), "causation": Fraction(3)})
        assert word_sim_breakdown(a, b, w1, store)[0] == word_sim_breakdown(a, b, w2, store)[0]

    def test_weights_shift_the_score(self, store):
        a = proj(
            slot("ch-of-state", "%change-of-integrity"),
            slot("causation", "%cause"),
        )
        b = proj(slot("ch-of-state", "%separate-in-duan-state"))
        heavy = DomainWeights(weights={"ch-of-state": Fraction(3)})
        # shares: 3/4 for ch-of-state, 1/4 for causation
        assert word_sim_breakdown(a, b, heavy, store)[0] == Fraction(3, 4) * Fraction(4, 5)

    def test_all_zero_weights_rejected(self, store):
        a = proj(slot("ch-of-state", "%change-of-integrity"))
        zero = DomainWeights(default_weight=Fraction(0))
        with pytest.raises(MatcherError, match="all weights are zero"):
            word_sim_breakdown(a, a, zero, store)

    def test_all_zero_weights_rejected_on_every_call(self, store):
        a = proj(slot("ch-of-state", "%change-of-integrity"))
        b = proj(slot("causation", "%cause"))
        weights = DomainWeights({"causation": 1}, default_weight=0)
        for _ in range(2):
            with pytest.raises(MatcherError, match="all weights are zero"):
                word_sim_breakdown(a, a, weights, store)
        assert word_sim_breakdown(b, b, weights, store)[0] == 1

    def test_breakdown_shares_sum_to_one(self, store):
        a = proj(
            slot("ch-of-state", "%change-of-integrity"),
            slot("causation", "%cause"),
            slot("instrument", "%with-instrument"),
        )
        b = proj(slot("ch-of-state", "%separate-in-pieces-state"))
        score, parts = word_sim_breakdown(a, b, UNIFORM, store)
        assert sum(p.weight for p in parts) == 1
        assert [p.domain for p in parts] == ["causation", "ch-of-state", "instrument"]
        assert score == sum(p.weight * p.similarity for p in parts)

    def test_score_never_exceeds_one(self, store):
        a = proj(
            slot("ch-of-state", "%separate-in-duan-state"),
            slot("causation", "%cause"),
        )
        assert word_sim_breakdown(a, a, UNIFORM, store)[0] == 1


class TestConstraints:
    def test_subsumption_gives_full_degree(self, lexicon, store):
        sense = lexicon.senses["duan-la"]
        degrees = constraint_degrees(sense, args_for(store, e1="branch-1"), store)
        assert [(d.constraint.concept.name, d.degree) for d in degrees] == [
            ("line-segment-object", Fraction(1))
        ]

    def test_near_miss_is_graded(self, lexicon, store):
        sense = lexicon.senses["da-sui"]  # wants a brittle patient
        degrees = constraint_degrees(sense, args_for(store, e1="branch-1"), store)
        assert degrees[0].degree == Fraction(2, 3)

    def test_unbound_role_scores_zero(self, lexicon, store):
        sense = lexicon.senses["da-duan"]  # constrains E1 and E2
        degrees = constraint_degrees(sense, args_for(store, e1="branch-1"), store)
        score = constraint_satisfaction(degrees)
        assert score == Fraction(1, 2)

    def test_mean_over_constraints(self, lexicon, store):
        sense = lexicon.senses["BREAK-1"]  # E1, E0, E2 constrained
        args = args_for(store, e1="vase-1")
        assert constraint_satisfaction(constraint_degrees(sense, args, store)) == Fraction(1, 3)

    def test_source_disambiguation_degrees(self, lexicon, store):
        args = args_for(store, e0="john-1", e1="language-barrier-1")
        degrees = constraint_degrees(lexicon.senses["BREAK-2"], args, store)
        barrier = constraint_satisfaction(degrees)
        assert barrier == Fraction(3, 4)

    def test_no_constraints_means_fully_satisfied(self, lexicon, store):
        sense = lexicon.senses["duan-la"]
        unconstrained = type(sense)(
            sense_id="x",
            lexeme="x",
            language="target",
            gloss="",
            constraints=(),
            projection=sense.projection,
        )
        degrees = constraint_degrees(unconstrained, args_for(store), store)
        assert constraint_satisfaction(degrees) == 1


class TestCandidateSlots:
    def test_optional_slot_needs_realized_domain(self, lexicon, store):
        rep_plain = build_inter_rep(
            lexicon.senses["BREAK-1"], args_for(store, e1="branch-1")
        )
        rep_caused = build_inter_rep(
            lexicon.senses["BREAK-1"], args_for(store, e0="john-1", e1="branch-1")
        )
        candidate = lexicon.senses["zhe-duan"]  # OBL duan + OPT causation + IMP action
        assert list(candidate_slots(rep_plain, candidate)) == ["ch-of-state"]
        assert list(candidate_slots(rep_caused, candidate)) == [
            "ch-of-state",
            "causation",
        ]

    def test_implicit_slots_never_count(self, lexicon, store):
        rep = build_inter_rep(
            lexicon.senses["BREAK-1"], args_for(store, e0="john-1", e1="vase-1")
        )
        candidate = lexicon.senses["da-sui"]
        domains = list(candidate_slots(rep, candidate))
        assert "action" not in domains


class TestMatchScore:
    def test_lexicographic_order(self):
        high = MatchScore(Fraction(4, 5), Fraction(0))
        low = MatchScore(Fraction(2, 3), Fraction(1))
        assert high > low
        assert low < high

    def test_constraint_breaks_concept_ties(self):
        a = MatchScore(Fraction(4, 5), Fraction(1))
        b = MatchScore(Fraction(4, 5), Fraction(1, 2))
        assert a > b

    def test_exact_equality(self):
        a = MatchScore(Fraction(1, 3), Fraction(2, 3))
        b = MatchScore(Fraction(2, 6), Fraction(4, 6))
        assert not a < b and not b < a
        assert a == b

    def test_full_pipeline_example(self, lexicon, store):
        args = args_for(store, e1="branch-1")
        rep = build_inter_rep(lexicon.senses["BREAK-1"], args)
        senses = [lexicon.senses["duan-la"], lexicon.senses["da-sui"]]
        (best, _, _), (rival, _, degrees) = inexact_match(rep, senses, args, UNIFORM, store)
        assert best == MatchScore(Fraction(4, 5), Fraction(1))
        assert rival == MatchScore(Fraction(4, 5), Fraction(2, 3))
        assert rival.constraint_score == constraint_satisfaction(degrees)
        assert best > rival


def target(sense_id: str, patient: str, *slots: ProjectionSlot) -> VerbSense:
    """A target sense built by hand, constrained only on its patient."""
    constraints = (SelectionConstraint(Role.E1, ConceptId("entity", patient)),)
    return VerbSense(sense_id, sense_id, "target", "", constraints, proj(*slots))


class TestBatchScoring:
    """``inexact_match`` scores a clause's candidates together, sharing equal inputs."""

    @pytest.fixture(scope="class")
    def clause(self, lexicon, store):
        args = args_for(store, e0="john-1", e1="branch-1")
        rep = build_inter_rep(lexicon.senses["BREAK-1"], args)
        assert list(rep.slots) == ["ch-of-state", "causation"]
        duan = slot("ch-of-state", "%separate-in-duan-state")
        cause = slot("causation", "%cause", SlotStatus.OPT)
        hit = slot("action", "%hit-action", SlotStatus.OPT)
        candidates = [
            target("a", "line-segment-object", duan, cause),
            # a's slots, other constraints
            target("b", "brittle-object", duan, cause),
            # a's constraints, another concept in one slot
            target("c", "line-segment-object", slot("ch-of-state", "%change-of-integrity"), cause),
            # a's constraints and domains, but the causation slot is not kept
            target("d", "line-segment-object", duan, slot("causation", "%cause", SlotStatus.IMP)),
            # b's constraints and a's kept slots; the clause realizes no action to match
            target("e", "brittle-object", duan, cause, hit),
        ]
        return rep, args, candidates

    def test_each_result_equals_the_candidate_scored_alone(self, clause, store):
        rep, args, candidates = clause
        batch = inexact_match(rep, candidates, args, UNIFORM, store)
        assert len(batch) == len(candidates)
        for candidate, (score, domains, degrees) in zip(candidates, batch):
            concept, alone = word_sim_breakdown(
                rep.slots, candidate_slots(rep, candidate), UNIFORM, store
            )
            assert (domains, degrees) == (alone, constraint_degrees(candidate, args, store))
            assert score == MatchScore(concept, constraint_satisfaction(degrees))
            assert inexact_match(rep, [candidate], args, UNIFORM, store) == [
                (score, domains, degrees)
            ]
        # every candidate differs from a in what it was built to differ in
        concepts = [score.concept_score for score, _, _ in batch]
        fits = [score.constraint_score for score, _, _ in batch]
        assert concepts[0] == concepts[1] == concepts[4] not in (concepts[2], concepts[3])
        assert fits[0] == fits[2] == fits[3] != fits[1] == fits[4]

    def test_equal_inputs_are_scored_once_and_share_their_parts(self, clause, store):
        rep, args, candidates = clause
        with mock.patch(
            "lexsel.matcher.word_sim_breakdown", wraps=word_sim_breakdown
        ) as concept, mock.patch(
            "lexsel.matcher.constraint_degrees", wraps=constraint_degrees
        ) as fit:
            batch = inexact_match(rep, candidates, args, UNIFORM, store)
        assert (concept.call_count, fit.call_count) == (3, 2)
        a, b, c, d, e = batch
        assert a[1] is b[1] is e[1] and a[2] is c[2] is d[2] and b[2] is e[2]

    def test_no_candidates_score_nothing(self, clause, store):
        rep, args, _ = clause
        assert inexact_match(rep, [], args, UNIFORM, store) == []

    def test_bundled_clauses_score_each_distinct_input_once(self, lexicon, store, tree):
        """Over the 162 bundled clauses, one concept score per distinct matched-slot
        tuple and one constraint score per distinct constraint tuple of a clause."""
        config = SelectionConfig()
        with mock.patch(
            "lexsel.matcher.word_sim_breakdown", wraps=word_sim_breakdown
        ) as concept, mock.patch(
            "lexsel.matcher.constraint_degrees", wraps=constraint_degrees
        ) as fit:
            translations = [
                translate(lexicon, store, args, config, tree)
                for args in bundled_clauses(store, lexicon)
            ]
        slot_keys = constraint_keys = candidates = 0
        for t in translations:
            senses = [lexicon.senses[r.sense_id] for r in t.ranking]
            candidates += len(senses)
            slot_keys += len({tuple(candidate_slots(t.inter_rep, s).items()) for s in senses})
            constraint_keys += len({s.constraints for s in senses})
        assert (concept.call_count, fit.call_count) == (slot_keys, constraint_keys)
        assert (len(translations), candidates, slot_keys, constraint_keys) == (162, 1104, 322, 789)


class TestGradedDegradation:
    def test_patient_mismatch_degrades_smoothly(self, lexicon, store):
        # duan-la wants a line-segment patient; stick fits, vase is worse,
        # diplomatic ties are worse still
        sense = lexicon.senses["duan-la"]
        scores = [
            constraint_satisfaction(constraint_degrees(sense, args_for(store, e1=m), store))
            for m in ("stick-1", "vase-1", "diplomatic-ties-1")
        ]
        assert scores[0] == 1
        assert scores[0] > scores[1] > scores[2] > 0

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_word_sim_stays_in_unit_interval(self, seed):
        store = load_bundled_store()
        rng = random.Random(seed)
        domains = ["ch-of-state", "causation", "instrument", "functionality"]
        concepts = {
            "ch-of-state": [
                "%change-of-state",
                "%change-of-integrity",
                "%separate-in-duan-state",
                "%separate-in-pieces-state",
            ],
            "causation": ["%cause"],
            "instrument": ["%with-instrument"],
            "functionality": ["%functionality", "%loss-of-functionality"],
        }

        def random_slots():
            picked = rng.sample(domains, rng.randint(0, len(domains)))
            return proj(*(slot(d, rng.choice(concepts[d])) for d in picked))

        a, b = random_slots(), random_slots()
        score = word_sim_breakdown(a, b, UNIFORM, store)[0]
        assert 0 <= score <= 1
        assert score == word_sim_breakdown(b, a, UNIFORM, store)[0]


class TestWeightsDocumentRoundTrip:
    def test_json_shapes(self):
        doc = {"ch-of-state": 2, "causation": 1, "default": 1}
        w = DomainWeights.from_json(json.dumps(doc))
        assert w.weight("ch-of-state") == 2
        assert w.weight("space") == 1


# exact weights: zero, small ints, and fractions with large numerators and denominators
WEIGHT = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 5),
    st.builds(Fraction, st.integers(0, 10**30), st.integers(1, 10**30)),
)


class TestArithmeticOracle:
    """Scores against the naive ``Fraction`` sums, computed here."""

    @pytest.fixture(scope="class")
    def meanings(self, store, lexicon):
        out = []
        for i, args in enumerate(bundled_clauses(store, lexicon)):
            sense = disambiguate(lexicon, args, store)
            out.append((build_inter_rep(sense, args, f"s{i}"), args))
        return out

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scores_equal_the_naive_sums(self, meanings, lexicon, store, data):
        weights = DomainWeights(
            data.draw(st.dictionaries(st.sampled_from(sorted(store.domains)), WEIGHT)),
            data.draw(WEIGHT),
        )
        senses = sorted(lexicon.senses.values(), key=lambda s: s.sense_id)
        # several pairs per weights object, so shares worked out once are reused
        pairs = data.draw(
            st.lists(st.tuples(st.sampled_from(meanings), st.sampled_from(senses)), max_size=6)
        )
        for (inter_rep, args), sense in pairs:
            left, right = inter_rep.slots, candidate_slots(inter_rep, sense)
            union = sorted(left.keys() | right.keys())
            total = sum((Fraction(weights.weight(d)) for d in union), Fraction(0))
            if union and total == 0:
                with pytest.raises(MatcherError, match="all weights are zero"):
                    word_sim_breakdown(left, right, weights, store)
            else:
                shares = [weights.weight(d) / total for d in union]
                sims = [
                    con_sim(store, left[d].concept, right[d].concept)
                    if d in left and d in right
                    else Fraction(0)
                    for d in union
                ]
                score, parts = word_sim_breakdown(left, right, weights, store)
                assert type(score) is Fraction
                assert score == sum((w * x for w, x in zip(shares, sims)), Fraction(0))
                assert [p.weight for p in parts] == shares
                assert [p.similarity for p in parts] == sims
            degrees = constraint_degrees(sense, args, store)
            fit = constraint_satisfaction(degrees)
            assert type(fit) is Fraction
            if degrees:
                assert fit == sum((d.degree for d in degrees), Fraction(0)) / len(degrees)
            else:
                assert fit == 1


class TestSharedScoreValues:
    """Counts, not timings: a warm pass over the bundled clauses makes no ``Fraction``."""

    @pytest.fixture(scope="class")
    def run_bundled(self, store, lexicon, tree):
        clauses = bundled_clauses(store, lexicon)
        config = SelectionConfig()  # one weights object, so its shares are read once
        assert len(clauses) == 162
        return lambda: [translate(lexicon, store, args, config, tree) for args in clauses]

    def test_warm_pass_builds_no_fraction(self, run_bundled):
        want = run_bundled()
        built = []
        saved = vars(Fraction)["__new__"]
        Fraction.__new__ = staticmethod(lambda cls, *a, **k: built.append(a) or saved(cls, *a, **k))
        try:
            again = run_bundled()
        finally:
            Fraction.__new__ = saved
        assert again == want
        assert built == []

    def test_second_pass_adds_no_score(self, run_bundled):
        _score.cache_clear()
        sizes = []
        for _ in range(2):
            run_bundled()
            sizes.append(_score.cache_info().currsize)
        assert 0 < sizes[0] == sizes[1]
