from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crowdtag.annotate as annotate_module
from crowdtag.annotate import (
    CHUNK_NODES,
    BudgetExhaustedError,
    BudgetState,
    CacheIndexError,
    CacheLockedError,
    ClientResponse,
    HttpChatClient,
    ResponseCache,
    ResponseParseError,
    SyntheticOracleClient,
    TransportError,
    TruncationPolicy,
    annotate_graph,
    build_prompt,
    estimate_tokens,
    node_prompts,
    parse_response,
    prompt_hash,
)
from crowdtag.fixtures import load_fixture_graph
from crowdtag.graph import NUM_TIE_CONFIGS, ROLE_SELF
from crowdtag.synthetic import synthetic_citation_graph

from conftest import random_graph, tiny_graph

CLASSES = ["Theory", "Rule Learning", "Neural Networks"]


class StubClient:
    """Returns canned text and counts calls."""

    def __init__(self, text: str, tokens=(100, 20)):
        self.text = text
        self.tokens = tokens
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return ClientResponse(self.text, *self.tokens)


def fixture_response(*pairs: tuple[str, int]) -> str:
    return json.dumps([{"answer": a, "confidence": c} for a, c in pairs])


# --- prompt construction -----------------------------------------------------

def test_prompt_config0_contains_only_center(chain_graph):
    tie = chain_graph.homophily_tie(2, 0)
    spec = build_prompt(tie, chain_graph.texts, CLASSES)
    assert "text of node 2" in spec.body
    assert spec.body.count("text of node") == 1
    assert "There are following categories: Theory, Rule Learning, Neural Networks." in spec.body
    assert "cited by" not in spec.body.split("Task:")[0].replace(
        "The content of the paper is", ""
    ).split(",")[0]


def test_prompt_predecessors_in_node_id_order(chain_graph):
    tie = chain_graph.homophily_tie(2, 1)  # preds of 2 are {1, 3}
    spec = build_prompt(tie, chain_graph.texts, CLASSES)
    expected = (
        "The content of the paper is text of node 2"
        ", which is cited by the paper(s) that text of node 1 ; text of node 3"
    )
    assert spec.body.startswith(expected)


def test_prompt_guess_count_matches_class_count(chain_graph):
    tie = chain_graph.homophily_tie(0, 0)
    seven = [f"C{i}" for i in range(7)]
    spec = build_prompt(tie, chain_graph.texts, seven)
    assert spec.guess_count == 7
    assert "your 7 best guesses" in spec.body
    assert "The sum of all confidence should be 100" in spec.body

    six = [f"C{i}" for i in range(6)]
    assert "your 6 best guesses" in build_prompt(tie, chain_graph.texts, six).body


def test_prompt_center_text_appears_once(chain_graph):
    tie = chain_graph.homophily_tie(2, 3)
    spec = build_prompt(tie, chain_graph.texts, CLASSES)
    assert spec.body.count("text of node 2") == 1


def test_prompt_deterministic_and_hash_model_scoped(chain_graph):
    tie = chain_graph.homophily_tie(2, 3)
    a = build_prompt(tie, chain_graph.texts, CLASSES, model="m1")
    b = build_prompt(tie, chain_graph.texts, CLASSES, model="m1")
    c = build_prompt(tie, chain_graph.texts, CLASSES, model="m2")
    assert a.body == b.body and a.prompt_hash == b.prompt_hash
    assert a.body == c.body and a.prompt_hash != c.prompt_hash
    assert a.prompt_hash == prompt_hash("m1", a.body)


def test_prompt_truncation_policy():
    g = tiny_graph([(i, 9) for i in range(9)], n=10)
    g.texts[0] = "x" * 2000
    tie = g.homophily_tie(9, 1)
    policy = TruncationPolicy(max_neighbors_per_role=3, neighbor_text_chars=50)
    spec = build_prompt(tie, g.texts, CLASSES, policy)
    # lowest-id neighbors kept: 0, 1, 2
    assert "text of node 1" in spec.body and "text of node 2" in spec.body
    assert "text of node 3" not in spec.body
    assert "x" * 51 not in spec.body  # neighbor text clipped


def test_prompt_center_truncation():
    g = tiny_graph([], n=2)
    g.texts[0] = "y" * 5000
    spec = build_prompt(g.homophily_tie(0, 0), g.texts, CLASSES)
    assert "y" * 1201 not in spec.body
    assert "y" * 1100 in spec.body


def test_prompts_built_with_one_clip_memo_equal_unmemoised_ones():
    g = labeled_graph(n=40, seed=3)
    # texts longer than both limits, with runs of whitespace to collapse
    texts = [f"paper  {v}\t" + " ".join(["word"] * (v % 9 + 1)) + "\n end" for v in range(40)]
    policy = TruncationPolicy(max_neighbors_per_role=3, neighbor_text_chars=20, center_text_chars=35)
    memo = annotate_module.ClippedTexts(texts)
    for v in range(40):
        for k in range(NUM_TIE_CONFIGS):
            tie = g.homophily_tie(v, k)
            plain = build_prompt(tie, texts, CLASSES, policy, model="m")
            assert build_prompt(tie, texts, CLASSES, policy, model="m", clipped=memo) == plain


@pytest.mark.parametrize("policy", [
    TruncationPolicy(),
    TruncationPolicy(max_neighbors_per_role=2, neighbor_text_chars=12, center_text_chars=10),
], ids=["default", "truncating"])
@pytest.mark.parametrize("model", ["oracle", "m\u00fc"], ids=["ascii-model", "utf8-model"])
def test_node_prompts_equal_one_build_prompt_per_tie(policy, model):
    # random graphs with mutual edges and two-hop cycles back to the center
    rng = np.random.default_rng(23)
    mutual_pairs = 0
    for _ in range(20):
        g = random_graph(rng, max_nodes=60)
        memo = annotate_module.ClippedTexts(g.texts)
        for v in range(g.num_nodes):
            mutual_pairs += bool(g.pred(v) & g.succ(v))
            expected = [
                build_prompt(g.homophily_tie(v, k), g.texts, g.class_names, policy, model)
                for k in range(NUM_TIE_CONFIGS)
            ]
            assert node_prompts(g, v, policy, model) == expected, f"n={g.num_nodes} v={v}"
            assert node_prompts(g, v, policy, model, memo) == expected, f"n={g.num_nodes} v={v}"
            for spec in expected:  # each node is shown once, where its text is not clipped away
                shown = re.findall(r"text of node (\d+)", spec.body)
                assert len(shown) == len(set(shown)), spec.body
    assert mutual_pairs > 0


def test_prompt_empty_class_names_rejected(chain_graph):
    with pytest.raises(ValueError):
        build_prompt(chain_graph.homophily_tie(0, 0), chain_graph.texts, [])


@pytest.mark.parametrize("which, digest", [
    ("fixture", "018d4ed7461f14a2edfc70af4c688bae8387159f54ceecab8f76eeb23ffefb27"),
    ("synthetic", "0c6be6748dec35397a414f1138f0300e55601333aff886e957aff71dbde8c9ef"),
])
def test_prompt_bytes_of_every_tie_are_pinned(which, digest):
    # Response caches are keyed by the prompt bytes, so any change to them
    # re-queries (and re-pays for) every cached prompt.
    if which == "fixture":
        g = load_fixture_graph()
    else:
        g = synthetic_citation_graph(n=60, num_classes=3, alpha=0.9, avg_out_degree=3.0, seed=2)
    bodies = hashlib.sha256()
    for v in range(g.num_nodes):
        for k in range(NUM_TIE_CONFIGS):
            bodies.update(build_prompt(g.homophily_tie(v, k), g.texts, g.class_names, model="m").body.encode())
    assert bodies.hexdigest() == digest


# --- response parsing -----------------------------------------------------------

def test_parse_response_direct():
    raw = '[{"answer":"Theory","confidence":60},{"answer":"Rule Learning","confidence":40}]'
    assert parse_response(raw, CLASSES) == [("Theory", 60), ("Rule Learning", 40)]


def test_parse_response_code_fences():
    raw = (
        "Sure! Here is my answer:\n```json\n"
        '[{"answer": "Theory", "confidence": 60}, {"answer": "Rule Learning", "confidence": 40}]'
        "\n```\nHope that helps."
    )
    assert parse_response(raw, CLASSES) == [("Theory", 60), ("Rule Learning", 40)]


def test_parse_response_unknown_labels_dropped_then_fail():
    raw = '[{"answer":"Quantum","confidence":100}]'
    with pytest.raises(ResponseParseError):
        parse_response(raw, CLASSES)


def test_parse_response_case_insensitive_and_clamped():
    raw = '[{"answer":"theory","confidence":250},{"answer":"RULE LEARNING","confidence":-5}]'
    assert parse_response(raw, CLASSES) == [("Theory", 100), ("Rule Learning", 0)]


def test_parse_response_skips_malformed_arrays():
    raw = 'noise [1, 2, 3] more [{"answer":"Theory","confidence":70}] tail'
    assert parse_response(raw, CLASSES) == [("Theory", 70)]


def test_parse_response_confidence_variants():
    raw = '[{"answer":"Theory","confidence":"55"},{"answer":"Rule Learning","confidence":null}]'
    assert parse_response(raw, CLASSES) == [("Theory", 55), ("Rule Learning", 0)]


def test_parse_response_non_finite_confidence():
    # json accepts bare Infinity/NaN spellings and 9e999 overflows to inf
    raw = '[{"answer":"Theory","confidence":9e999},{"answer":"Rule Learning","confidence":NaN}]'
    assert parse_response(raw, CLASSES) == [("Theory", 0), ("Rule Learning", 0)]


def test_parse_response_no_array_fails():
    with pytest.raises(ResponseParseError):
        parse_response("the category is Theory (confidence 90)", CLASSES)


def test_parse_response_never_raises_unexpected_on_fuzz():
    rng = np.random.default_rng(1234)
    for _ in range(2000):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 400)), dtype=np.uint8))
        text = blob.decode("latin-1")
        try:
            result = parse_response(text, CLASSES)
            assert isinstance(result, list) and result
        except ResponseParseError:
            pass


def test_parse_response_fuzz_with_json_shards():
    # adversarial inputs stitched from JSON fragments and unicode
    shards = ['[{"answer"', ':"Theory"', ',"confidence":', "9e999", "}]", "[[[",
              "null", ' ', "\udcff" if False else "￿", '{"answer":1}',
              '[{"answer": "theory", "confidence": 1e308}]', "```json", "```"]
    rng = np.random.default_rng(77)
    for _ in range(2000):
        text = "".join(shards[i] for i in rng.integers(0, len(shards), size=rng.integers(1, 8)))
        try:
            result = parse_response(text, CLASSES)
            assert all(0 <= c <= 100 for _, c in result)
        except ResponseParseError:
            pass


def reference_parse(raw, class_names):
    """The response parser as first written, which built ``(label, conf)``
    tuples for ``guess_rows`` to walk again: the first guess array that yields
    a guess, or None. ``parse_response`` and the rows the annotate stage
    scans must match it and ``reference_guess_rows`` on every text."""
    canonical = {c.strip().lower(): c for c in class_names}
    labels = {**canonical, **{c: canonical[c.strip().lower()] for c in class_names}}
    decoder, start = json.JSONDecoder(), 0
    while (idx := raw.find("[", start)) >= 0:
        start = idx + 1
        try:
            value, _ = decoder.raw_decode(raw, idx)
        except ValueError:
            continue
        guesses = reference_extract_guesses(value, labels)
        if guesses:
            return guesses
    return None


def reference_extract_guesses(value, labels):
    if not isinstance(value, list):
        return []
    guesses = []
    for item in value:
        if not isinstance(item, dict) or "answer" not in item:
            continue
        answer = item["answer"]
        if not isinstance(answer, str):
            continue
        label = labels.get(answer)
        if label is None:
            label = labels.get(answer.strip().lower())
            if label is None:
                continue
        conf_raw = item.get("confidence", 0)
        if type(conf_raw) is int and 0 <= conf_raw <= 100:
            guesses.append((label, conf_raw))
            continue
        try:
            conf = int(round(float(conf_raw)))
        except (TypeError, ValueError, OverflowError):
            conf = 0
        guesses.append((label, max(0, min(100, conf))))
    return guesses


def reference_guess_rows(guesses, class_names):
    index = {c: i for i, c in enumerate(class_names)}
    m, num_classes = len(guesses), len(class_names)
    top1 = np.fromiter((index[g[0][0]] if g else -1 for g in guesses), dtype=np.int16, count=m)
    cells, confs = [], []
    for r, ranked in enumerate(guesses):
        for label, conf in ranked or ():
            cells.append(r * num_classes + index[label])
            confs.append(max(0, conf))
    mass = np.bincount(np.asarray(cells, dtype=np.intp), weights=confs, minlength=m * num_classes)
    return top1, mass.astype(np.int32).reshape(m, num_classes)


# " theory" normalises like "Theory", so both map to the later one
SCAN_CLASSES = ["Theory", "Rule Learning", " theory", "Neural Networks"]


def guess_item(answer, conf="-"):
    item = {"answer": answer}
    if conf != "-":
        item["confidence"] = conf
    return item


ADVERSARIAL_RESPONSES = [
    # prose and code fences
    'Sure! Here it is:\n```json\n[{"answer": "Theory", "confidence": 60}, '
    '{"answer": "Rule Learning", "confidence": 40}]\n```\nHope that helps.',
    "```\n" + json.dumps([guess_item("Neural Networks", 90)]) + "\n```",
    # an unusable first array, then a usable one
    'noise [1, 2, 3] more [{"answer": "Rule Learning", "confidence": 70}] tail',
    json.dumps([guess_item("Quantum", 80)]) + " or " + json.dumps([guess_item("theory", 20)]),
    '[{"answer": "Theory", "confidence": 5} broken ' + json.dumps([guess_item("Rule Learning", 9)]),
    # case and whitespace variants, unknown labels, a repeated label
    json.dumps([guess_item("  THEORY  ", 30), guess_item("rule learning", 30), guess_item(" theory", 5),
                guess_item("neural\tnetworks", 10), guess_item("Neural  Networks", 10)]),
    json.dumps([guess_item("Quantum", 100), guess_item("Theory", 10), guess_item("Physics", 3)]),
    json.dumps([guess_item("Theory", 30), guess_item("theory", 50), guess_item("Rule Learning", 20),
                guess_item("Theory", 100)]),
    json.dumps([guess_item("Quantum", 100)]),
    # non-dict items, empty arrays, no array, nested arrays
    json.dumps([1, "Theory", None, True, [guess_item("Theory", 1)], guess_item("Rule Learning", 40)]),
    json.dumps([{"label": "Theory"}, {"answer": 3}, {"answer": None}, guess_item(["Theory"]),
                {"confidence": 9}]),
    "[]",
    "[] [] " + json.dumps([guess_item("Neural Networks", 11)]),
    "the category is Theory (confidence 90)",
    "",
    json.dumps([[guess_item("Theory", 60), guess_item("Rule Learning", 40)]]),
    json.dumps([[[guess_item("Neural Networks", 7)]], "x"]),
    # confidences: floats, strings, negative, above 100, overflowing, missing
    json.dumps([guess_item("Theory", 55.5), guess_item("Rule Learning", 54.5),
                guess_item("Neural Networks", 0.49), guess_item(" theory", 99.99)]),
    json.dumps([guess_item("Theory", "55"), guess_item("Rule Learning", " 7 "),
                guess_item("Neural Networks", "abc"), guess_item("Theory", "1e3")]),
    json.dumps([guess_item("Theory", -5), guess_item("Rule Learning", -0.4),
                guess_item("Neural Networks", "-12")]),
    json.dumps([guess_item("Theory", 250), guess_item("Rule Learning", 100.4),
                guess_item("Neural Networks", 10**30)]),
    '[{"answer": "Theory", "confidence": 9e999}, {"answer": "Rule Learning", "confidence": -9e999},'
    ' {"answer": "Neural Networks", "confidence": NaN}, {"answer": "Theory", "confidence": Infinity}]',
    json.dumps([guess_item("Theory"), guess_item("Rule Learning", None), guess_item("Theory", True),
                guess_item("Neural Networks", [50]), guess_item("Rule Learning", {"v": 5})]),
]


class CyclingClient:
    """Answers the i-th request with ``texts[i % len(texts)]``."""

    def __init__(self, texts):
        self.texts = texts
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        return ClientResponse(self.texts[(self.calls - 1) % len(self.texts)])


def scanned_rows(texts):
    """``top1`` and ``mass`` the annotate stage records when the responses,
    in request order, are ``texts`` over and over; and the response each row
    got."""
    g = replace(labeled_graph(n=40, classes=len(SCAN_CLASSES), seed=6), class_names=SCAN_CLASSES)
    client = CyclingClient(texts)
    cache = ResponseCache()
    guesses = annotate_graph(g, list(range(g.num_nodes)), client, cache, BudgetState(limit_usd=1.0))
    raws = [cache.get(h)["raw_response"] for row in guesses.prompt_hashes for h in row]
    assert set(raws) == set(texts)
    return guesses.top1.reshape(-1), guesses.mass.reshape(len(raws), -1), raws


def test_scanner_equals_the_reference_parser_on_adversarial_responses():
    for raw in ADVERSARIAL_RESPONSES:
        want = reference_parse(raw, SCAN_CLASSES)
        if want is None:
            with pytest.raises(ResponseParseError):
                parse_response(raw, SCAN_CLASSES)
        else:
            assert parse_response(raw, SCAN_CLASSES) == want, raw
    unparsed = sum(reference_parse(raw, SCAN_CLASSES) is None for raw in ADVERSARIAL_RESPONSES)
    assert 0 < unparsed < len(ADVERSARIAL_RESPONSES)

    top1, mass, raws = scanned_rows(ADVERSARIAL_RESPONSES)
    want_top1, want_mass = reference_guess_rows(
        [reference_parse(raw, SCAN_CLASSES) for raw in raws], SCAN_CLASSES
    )
    np.testing.assert_array_equal(top1, want_top1)
    np.testing.assert_array_equal(mass, want_mass)
    assert (top1 == -1).any()
    assert mass.max() > 100  # a repeated label's confidences add up


def test_scanner_equals_the_reference_parser_on_stitched_fragments():
    shards = ['[{"answer"', ':"Theory"', ':" theory "', ',"confidence":', "9e999", "55.5", '"7"',
              "-3", "}", "]", "}]", "[[[", "[]", "null", " ", "￿", '{"answer":1}', "Quantum",
              '[{"answer": "rule learning", "confidence": 1e308}]', "```json", "```", ","]
    rng = np.random.default_rng(78)
    texts = ["".join(shards[i] for i in rng.integers(0, len(shards), size=rng.integers(1, 12)))
             for _ in range(300)]
    for raw in texts:
        want = reference_parse(raw, SCAN_CLASSES)
        try:
            assert parse_response(raw, SCAN_CLASSES) == want, raw
        except ResponseParseError:
            assert want is None, raw
    texts = list(dict.fromkeys(texts))
    top1, mass, raws = scanned_rows(texts)
    want_top1, want_mass = reference_guess_rows(
        [reference_parse(raw, SCAN_CLASSES) for raw in raws], SCAN_CLASSES
    )
    np.testing.assert_array_equal(top1, want_top1)
    np.testing.assert_array_equal(mass, want_mass)


# --- budget ----------------------------------------------------------------------

def test_budget_zero_refuses_immediately():
    budget = BudgetState(limit_usd=0.0)
    with pytest.raises(BudgetExhaustedError):
        budget.check()


def test_budget_nan_limit_refuses():
    with pytest.raises(BudgetExhaustedError):
        BudgetState(limit_usd=float("nan")).check()


def test_budget_charge_accumulates():
    budget = BudgetState(limit_usd=1.0, price_per_1k_in=0.5, price_per_1k_out=1.5)
    budget.charge(2000, 1000)
    assert budget.spent_usd == pytest.approx(2 * 0.5 + 1 * 1.5)


def test_budget_never_exceeds_limit_plus_one_request():
    budget = BudgetState(limit_usd=0.01, price_per_1k_in=1.0, price_per_1k_out=1.0)
    max_request_cost = 0.005
    charged = 0
    while True:
        try:
            budget.check()
        except BudgetExhaustedError:
            break
        budget.charge(4, 1)  # 0.005 per request
        charged += 1
    assert budget.spent_usd <= 0.01 + max_request_cost + 1e-12
    assert charged == 2


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


# --- cache + annotate driver --------------------------------------------------------

def make_prompt(graph, v=2, k=1, model="m"):
    return build_prompt(graph.homophily_tie(v, k), graph.texts, CLASSES, model=model)


def lone_nodes(n: int = 2):
    """``n`` nodes without edges, classes ``CLASSES``: each node's eight ties
    hold the node alone, so its eight prompts are one prompt, and annotating
    the node sends one request."""
    return replace(tiny_graph([], n=n), class_names=CLASSES)


def lone_hash(graph, v: int, model: str = "") -> str:
    """The hash of the one prompt of node ``v`` of :func:`lone_nodes`."""
    return node_prompts(graph, v, model=model)[0].prompt_hash


def test_annotate_parses_and_accounts_tokens():
    g = lone_nodes()
    client = StubClient(fixture_response(("Theory", 60), ("Rule Learning", 40)))
    budget = BudgetState(limit_usd=1.0)
    cache = ResponseCache()
    guesses = annotate_graph(g, [0], client, cache, budget, model="m")
    assert guesses.top1.tolist() == [[0] * NUM_TIE_CONFIGS]
    assert guesses.mass.tolist() == [[[60, 40, 0]] * NUM_TIE_CONFIGS]
    record = cache.get(lone_hash(g, 0, "m"))
    assert (record["tokens_in"], record["tokens_out"]) == (100, 20)
    assert client.calls == 1
    assert budget.spent_usd > 0


def test_annotate_cache_idempotent(tmp_path):
    g = lone_nodes()
    client = StubClient(fixture_response(("Theory", 100)))
    budget = BudgetState(limit_usd=1.0)

    with ResponseCache(tmp_path / "cache.jsonl") as cache:
        first = annotate_graph(g, [0], client, cache, budget, model="m")
        spent = budget.spent_usd
        second = annotate_graph(g, [0], client, cache, budget, model="m")
    assert client.calls == 1
    assert second.prompt_hashes == first.prompt_hashes
    np.testing.assert_array_equal(second.mass, first.mass)
    assert budget.spent_usd == spent

    # a fresh cache instance reads the same file: still zero extra requests
    cache2 = ResponseCache(tmp_path / "cache.jsonl")
    never = StubClient("never called")
    third = annotate_graph(g, [0], never, cache2, budget, model="m")
    assert never.calls == 0
    assert third.top1[0, 0] == 0 and third.mass[0, 0].tolist() == [100, 0, 0]


def test_annotate_budget_refusal_distinct_from_transport():
    g = lone_nodes()
    with pytest.raises(BudgetExhaustedError):
        annotate_graph(g, [0], StubClient("x"), ResponseCache(), BudgetState(limit_usd=0.0))

    class FailingSession:
        def post(self, *a, **kw):
            raise OSError("connection refused")

    client = HttpChatClient("http://localhost:1/v1", "m", retries=1, backoff_s=0.0,
                            session=FailingSession())
    with pytest.raises(TransportError):
        annotate_graph(g, [0], client, ResponseCache(), BudgetState(limit_usd=1.0))


def test_annotate_unparseable_fallback_flagged():
    g = lone_nodes()
    guesses = annotate_graph(g, [0], StubClient("no json here"), ResponseCache(), BudgetState(limit_usd=1.0))
    assert guesses.top1.tolist() == [[-1] * NUM_TIE_CONFIGS]
    assert not guesses.mass.any()


def test_cache_file_format_and_header(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache.write_header(path, "abc123")
    g = lone_nodes()
    with ResponseCache(path) as cache:
        annotate_graph(g, [0], StubClient(fixture_response(("Theory", 90))), cache,
                       BudgetState(limit_usd=1.0), model="m")

    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["meta"]["schema_version"] == 1
    record = lines[1]
    assert set(record) == {"hash", "model", "prompt", "raw_response", "tokens_in", "tokens_out"}
    assert record["hash"] == lone_hash(g, 0, "m")


def test_cache_replays_a_record_that_holds_a_timestamp(tmp_path):
    # earlier versions wrote each record's wall-clock time as ``timestamp``
    path = tmp_path / "cache.jsonl"
    g = lone_nodes()
    record = {"hash": lone_hash(g, 0, "m"), "model": "m", "prompt": "p",
              "raw_response": fixture_response(("Rule Learning", 70)), "tokens_in": 3,
              "tokens_out": 2, "timestamp": 1760000000.25}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    client = StubClient("never called")
    with ResponseCache(path) as cache:
        assert cache.get(record["hash"]) == record
        guesses = annotate_graph(g, [0], client, cache, BudgetState(limit_usd=0.0), model="m")
    assert client.calls == 0
    assert guesses.top1.tolist() == [[1] * NUM_TIE_CONFIGS]


def test_cache_skips_and_reports_torn_final_line(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    ResponseCache.write_header(path, "h")
    g = lone_nodes()
    budget = BudgetState(limit_usd=1.0)
    with ResponseCache(path) as cache:
        annotate_graph(g, [0], StubClient(fixture_response(("Theory", 90))), cache, budget)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"hash": "b", "raw_')  # crash mid-append

    with ResponseCache(path) as cache:
        assert len(cache) == 1 and cache.get(lone_hash(g, 0)) is not None
        assert "torn final record" in capsys.readouterr().err

        # the next append replaces the torn tail, leaving a clean file
        annotate_graph(g, [1], StubClient(fixture_response(("Theory", 80))), cache, budget)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(l).get("hash") for l in lines] == [None, lone_hash(g, 0), lone_hash(g, 1)]
    assert len(ResponseCache(path)) == 2
    assert capsys.readouterr().err == ""


def test_cache_malformed_line_before_last_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = json.dumps({"hash": "a", "raw_response": "[]"})
    path.write_text(good + "\n" + '{"hash": "b", "raw_' + "\n" + good + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        ResponseCache(path)


def test_cache_records_survive_sigkill_with_handle_open(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    n = 200
    writer = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys, time\nfrom crowdtag.annotate import ResponseCache\n"
            "cache = ResponseCache(sys.argv[1])\n"
            "for i in range(int(sys.argv[2])):\n"
            "    cache.put({'hash': f'h{i}', 'raw_response': '[]', 'tokens_in': i})\n"
            "print('written', flush=True); time.sleep(60)",
            str(path),
            str(n),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(annotate_module.__file__).parents[1])},
    )
    try:
        assert writer.stdout.readline().strip() == "written"
    finally:
        writer.kill()  # SIGKILL with the append handle still open
        writer.wait()
        writer.stdout.close()
    cache = ResponseCache(path)
    assert len(cache) == n and cache.torn_tail_at is None
    assert cache.get(f"h{n - 1}")["tokens_in"] == n - 1
    assert "torn" not in capsys.readouterr().err


def test_cache_concurrent_puts_through_one_handle(tmp_path):
    path = tmp_path / "cache.jsonl"
    threads_n, per_thread = 8, 50
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ResponseCache(path) as cache:
            def writer(t):
                for i in range(per_thread):
                    cache.put({"hash": f"{t}-{i}", "raw_response": "x" * (i % 7)})

            threads = [threading.Thread(target=writer, args=(t,)) for t in range(threads_n)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(switch)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == threads_n * per_thread
    assert len(ResponseCache(path)) == threads_n * per_thread


def test_cache_get_after_reopen_returns_the_same_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache.write_header(path, "h")
    records = [
        {"hash": f"h{i}", "prompt": "p" * i, "raw_response": f"[{i}]", "tokens_in": i,
         "timestamp": 1.5 + i}
        for i in range(5)
    ]
    with ResponseCache(path) as cache:
        for record in records:
            cache.put(record)
        assert cache.get("h3") == records[3]  # read back from the file
    reopened = ResponseCache(path)
    assert len(reopened) == len(records)
    assert [reopened.get(r["hash"]) for r in records] == records
    assert reopened.get("absent") is None


def test_cache_get_raises_when_a_line_is_rewritten_under_the_index(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines = [json.dumps({"hash": h, "raw_response": "[]"}) for h in ("aa", "bb")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cache = ResponseCache(path)
    assert cache.get("bb") == {"hash": "bb", "raw_response": "[]"}
    # the same bytes, records swapped: every offset now points at another record
    path.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    with pytest.raises(CacheIndexError, match="bb"):
        cache.get("bb")
    path.write_text("x" * 100, encoding="utf-8")
    with pytest.raises(CacheIndexError):
        cache.get("aa")


def test_cache_second_appender_refused_before_sending(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    ResponseCache.write_header(path, "h")
    holder = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys\nfrom crowdtag.annotate import ResponseCache\n"
            "with ResponseCache(sys.argv[1]) as cache:\n"
            "    cache.put({'hash': 'first', 'raw_response': '[]'})\n"
            "    print('appending', flush=True)\n"
            "    sys.stdin.readline()\n"
            "    cache.put({'hash': 'second', 'raw_response': '[]'})\n",
            str(path),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(annotate_module.__file__).parents[1])},
    )
    g = lone_nodes()
    client = StubClient(fixture_response(("Theory", 90)))
    try:
        assert holder.stdout.readline().strip() == "appending"
        with ResponseCache(path) as cache:
            assert cache.get("first") is not None  # reading needs no lock
            with pytest.raises(CacheLockedError, match="another run"):
                annotate_graph(g, [0], client, cache, BudgetState(limit_usd=1.0))
        assert client.calls == 0
        holder.stdin.write("go\n")
        holder.stdin.flush()
        assert holder.wait(timeout=30) == 0
    finally:
        holder.kill()
        holder.wait()
        holder.stdin.close()
        holder.stdout.close()
    # the holder's appends after the refusal are whole lines, and a later run
    # that takes the lock indexes and extends the file as it now is
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line).get("hash") for line in lines] == [None, "first", "second"]
    with ResponseCache(path) as cache:
        annotate_graph(g, [0], client, cache, BudgetState(limit_usd=1.0))
        assert cache.get("second") is not None and cache.get(lone_hash(g, 0)) is not None
    assert client.calls == 1
    assert "torn" not in capsys.readouterr().err


def test_cache_lock_reindexes_a_file_appended_since_load(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache.write_header(path, "h")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"hash": "torn", "raw_')  # crash mid-append
    stale = ResponseCache(path)  # indexes the file as it is now
    with ResponseCache(path) as other:  # another run cuts the tail and appends
        other.put({"hash": "other", "raw_response": "[]"})
    g = lone_nodes()
    with stale:
        annotate_graph(g, [0], StubClient(fixture_response(("Theory", 90))), stale, BudgetState(limit_usd=1.0))
        assert stale.get("other") == {"hash": "other", "raw_response": "[]"}
    hashes = [json.loads(line).get("hash") for line in path.read_text().splitlines()]
    assert hashes == [None, "other", lone_hash(g, 0)]


def test_cache_skips_a_torn_final_line_that_keeps_a_full_hash_prefix(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    ResponseCache.write_header(path, "h")
    first, second = ({"hash": c * 64, "raw_response": "[]"} for c in "ab")
    with ResponseCache(path) as cache:
        cache.put(first)
    clean_size = path.stat().st_size
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"hash": "' + "c" * 64 + '", "raw_')  # crash mid-append

    with ResponseCache(path) as cache:
        assert len(cache) == 1 and cache.torn_tail_at == clean_size
        assert cache.get("c" * 64) is None and cache.get("a" * 64) == first
        assert "torn final record" in capsys.readouterr().err
        cache.put(second)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(l).get("hash") for l in lines] == [None, "a" * 64, "b" * 64]
    assert len(ResponseCache(path)) == 2
    assert capsys.readouterr().err == ""


def test_cache_keeps_a_final_record_that_lost_only_its_newline(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    first, second = ({"hash": c * 64, "raw_response": "[]"} for c in "ab")
    with ResponseCache(path) as cache:
        cache.put(first)
    data = path.read_bytes()
    path.write_bytes(data[:-1])  # a crash between the record and its newline

    with ResponseCache(path) as cache:
        assert len(cache) == 1 and cache.torn_tail_at is None
        cache.put(second)
    with ResponseCache(path) as cache:
        assert len(cache) == 2
        assert cache.get(first["hash"]) == first and cache.get(second["hash"]) == second
    assert path.read_bytes() == data + (json.dumps(second) + "\n").encode()
    assert "torn" not in capsys.readouterr().err


def test_cache_corrupt_body_behind_an_intact_prefix_raises_on_get(tmp_path):
    path = tmp_path / "cache.jsonl"
    bad, good = "d" * 64, {"hash": "e" * 64, "raw_response": "[]"}
    path.write_text(
        '{"hash": "' + bad + '", "raw_response": not json}\n' + json.dumps(good) + "\n",
        encoding="utf-8",
    )
    with ResponseCache(path) as cache:  # opening decodes neither line
        assert len(cache) == 2 and cache.torn_tail_at is None
        assert cache.get(good["hash"]) == good
        with pytest.raises(CacheIndexError, match=bad):
            cache.get(bad)


def _count_json_decodes(monkeypatch) -> list:
    """The argument of every ``json.loads`` call from now to the end of the test."""
    decoded, loads = [], json.loads
    monkeypatch.setattr(annotate_module.json, "loads",
                        lambda s, **kw: decoded.append(s) or loads(s, **kw))
    return decoded


def test_cache_indexes_lines_without_the_put_prefix_by_decoding_them(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    ResponseCache.write_header(path, "h")
    foreign = [
        {"hash": "aa", "raw_response": "[]"},  # short hash
        {"hash": "F" * 64, "raw_response": "[]"},  # not lowercase hex
        {"raw_response": "[]", "hash": "f" * 64},  # hash not the first key
        {"hash": "0" * 64},  # no field after the hash
    ]
    put = {"hash": "1" * 64, "raw_response": "[]", "tokens_in": 3}
    with open(path, "a", encoding="utf-8") as fh:
        for record in foreign:
            fh.write(json.dumps(record) + "\n")
    with ResponseCache(path) as cache:
        cache.put(put)
    decoded = _count_json_decodes(monkeypatch)
    cache = ResponseCache(path)
    assert len(decoded) == 1 + len(foreign)  # the header and the foreign lines
    assert len(cache) == len(foreign) + 1
    assert [cache.get(r["hash"]) for r in [*foreign, put]] == [*foreign, put]
    cache.close()


def _descriptors_on(path: Path) -> int:
    """How many of this process's file descriptors are open on ``path``."""
    target, count = os.path.realpath(path), 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") == target
        except OSError:  # the descriptor listdir itself used, closed since
            pass
    return count


def _filled_cache(path: Path, n: int = 20) -> list[dict]:
    records = [{"hash": f"{i:064x}", "raw_response": f"[{i}]", "tokens_in": i} for i in range(n)]
    with ResponseCache(path) as cache:
        for record in records:
            cache.put(record)
    return records


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to list descriptors"
)


@needs_proc_fd
def test_cache_close_closes_the_read_descriptor_and_get_reopens_it(tmp_path):
    path = tmp_path / "cache.jsonl"
    records = _filled_cache(path)
    cache = ResponseCache(path)
    assert _descriptors_on(path) == 0  # indexing leaves nothing open
    assert [cache.get(r["hash"]) for r in records] == records
    assert _descriptors_on(path) == 1
    cache.close()
    assert _descriptors_on(path) == 0
    assert cache.get(records[3]["hash"]) == records[3]
    assert _descriptors_on(path) == 1
    cache.close()
    assert _descriptors_on(path) == 0


def test_cache_concurrent_gets_open_one_descriptor(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    records = _filled_cache(path)
    opened = []
    real_open = os.open

    def counting_open(name, *args, **kwargs):
        if os.fspath(name) == os.fspath(path):
            opened.append(name)
        return real_open(name, *args, **kwargs)

    monkeypatch.setattr(annotate_module.os, "open", counting_open)
    threads_n = 8
    start = threading.Barrier(threads_n)
    results: dict[int, list] = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ResponseCache(path) as cache:
            def reader(t):
                start.wait(timeout=30)
                results[t] = [cache.get(r["hash"]) for r in records]

            threads = [threading.Thread(target=reader, args=(t,)) for t in range(threads_n)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(switch)
    assert len(opened) == 1
    assert results == {t: records for t in range(threads_n)}


@needs_proc_fd
def test_cache_open_get_close_cycles_leave_no_descriptor_open(tmp_path):
    path = tmp_path / "cache.jsonl"
    records = _filled_cache(path)
    before = len(os.listdir("/proc/self/fd"))
    for i in range(200):
        with ResponseCache(path) as cache:
            assert cache.get(records[i % len(records)]["hash"]) is not None
    assert len(os.listdir("/proc/self/fd")) == before


@needs_proc_fd
def test_cache_dropped_without_close_releases_its_read_descriptor(tmp_path):
    path = tmp_path / "cache.jsonl"
    records = _filled_cache(path)
    cache = ResponseCache(path)
    assert cache.get(records[0]["hash"]) == records[0]
    assert _descriptors_on(path) == 1
    del cache
    gc.collect()
    assert _descriptors_on(path) == 0


# --- http client ----------------------------------------------------------------------

class FakeHttpSession:
    """Scripted responses: each item is an exception, a (status, body) pair or
    a (status, body, headers) triple."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item

        class Resp:
            def __init__(self, status_code, body, headers=None):
                self.status_code = status_code
                self.body = body
                self.headers = headers or {}

            def json(self):
                return self.body

        return Resp(*item)


def chat_body(text: str, usage=None) -> dict:
    body = {"choices": [{"message": {"content": text}}]}
    if usage:
        body["usage"] = usage
    return body


def test_http_client_success_and_wire_format(chain_graph):
    session = FakeHttpSession(
        [(200, chat_body('[{"answer":"Theory","confidence":100}]',
                         {"prompt_tokens": 11, "completion_tokens": 7}))]
    )
    client = HttpChatClient("http://api/v1/chat", "gpt-x", api_key="sk-test",
                            temperature=0.0, session=session)
    spec = make_prompt(chain_graph, model="gpt-x")
    resp = client.complete(spec)
    assert resp.tokens_in == 11 and resp.tokens_out == 7

    sent = session.requests[0]
    assert sent["json"]["model"] == "gpt-x"
    assert sent["json"]["temperature"] == 0.0
    assert sent["json"]["messages"] == [{"role": "user", "content": spec.body}]
    assert sent["headers"]["Authorization"] == "Bearer sk-test"


def test_http_client_retries_then_succeeds(chain_graph):
    session = FakeHttpSession(
        [OSError("boom"), (500, {}), (429, {}), (200, chat_body("ok"))]
    )
    client = HttpChatClient("http://api", "m", retries=3, backoff_s=0.0, session=session)
    resp = client.complete(make_prompt(chain_graph))
    assert resp.text == "ok"
    assert len(session.requests) == 4


def test_http_client_token_estimate_fallback(chain_graph):
    session = FakeHttpSession([(200, chat_body("abcdefgh"))])
    client = HttpChatClient("http://api", "m", session=session)
    spec = make_prompt(chain_graph)
    resp = client.complete(spec)
    assert resp.tokens_in == estimate_tokens(spec.body)
    assert resp.tokens_out == 2


def test_http_client_gives_up_after_retries(chain_graph):
    session = FakeHttpSession([OSError("a"), OSError("b")])
    client = HttpChatClient("http://api", "m", retries=1, backoff_s=0.0, session=session)
    with pytest.raises(TransportError):
        client.complete(make_prompt(chain_graph))


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_http_client_does_not_retry_client_errors(chain_graph, status, monkeypatch):
    sleeps = []
    monkeypatch.setattr("crowdtag.annotate.time.sleep", sleeps.append)
    session = FakeHttpSession([(status, {"error": "no"})] * 4)
    client = HttpChatClient("http://api", "m", retries=3, backoff_s=1.0, session=session)
    with pytest.raises(TransportError, match=str(status)):
        client.complete(make_prompt(chain_graph))
    assert len(session.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize("header, slept", [
    ("7", 7.0),
    ("86400", annotate_module.RETRY_AFTER_CAP_S),
    (None, 2.0),
    ("Wed, 21 Oct 2026 07:28:00 GMT", 2.0),
    ("-3", 2.0),
])
def test_http_client_honours_retry_after_on_429(chain_graph, monkeypatch, header, slept):
    sleeps = []
    monkeypatch.setattr("crowdtag.annotate.time.sleep", sleeps.append)
    headers = {} if header is None else {"Retry-After": header}
    session = FakeHttpSession([(429, {}, headers), (200, chat_body("ok"))])
    client = HttpChatClient("http://api", "m", retries=3, backoff_s=2.0, session=session)
    assert client.complete(make_prompt(chain_graph)).text == "ok"
    assert sleeps == [slept]


def test_http_client_retry_after_applies_to_the_next_attempt_only(chain_graph, monkeypatch):
    sleeps = []
    monkeypatch.setattr("crowdtag.annotate.time.sleep", sleeps.append)
    session = FakeHttpSession(
        [(429, {}, {"Retry-After": "5"}), (503, {}, {"Retry-After": "9"}), (200, chat_body("ok"))]
    )
    client = HttpChatClient("http://api", "m", retries=3, backoff_s=1.0, session=session)
    assert client.complete(make_prompt(chain_graph)).text == "ok"
    assert sleeps == [5.0, 2.0]  # a 5xx keeps the exponential backoff


def test_http_client_malformed_body_not_retried(chain_graph):
    session = FakeHttpSession([(200, {"choices": []}), (200, chat_body("ok"))])
    client = HttpChatClient("http://api", "m", retries=1, backoff_s=0.0, session=session)
    with pytest.raises(TransportError, match="malformed"):
        client.complete(make_prompt(chain_graph))
    assert len(session.requests) == 1


# --- synthetic oracle --------------------------------------------------------------

def labeled_graph(n=60, classes=3, seed=0, alpha=0.9):
    return synthetic_citation_graph(n=n, num_classes=classes, alpha=alpha, seed=seed)


def oracle_reply(graph, v, k, noise, seed):
    """The synthetic oracle's response to the prompt of tie ``(v, k)``: its
    text and its parsed guesses."""
    spec = build_prompt(graph.homophily_tie(v, k), graph.texts, graph.class_names)
    text = SyntheticOracleClient(graph, noise=noise, seed=seed).complete(spec).text
    return text, parse_response(text, graph.class_names)


def test_oracle_noise_zero_singleton_tie():
    g = labeled_graph()
    for v in (0, 5, 17):
        _, guesses = oracle_reply(g, v, 0, noise=0.0, seed=1)
        assert guesses[0] == (g.class_names[g.labels[v]], 100)
        assert sum(c for _, c in guesses) == 100


def test_oracle_deterministic_given_seed():
    g = labeled_graph()
    a = oracle_reply(g, 3, 4, noise=0.5, seed=42)
    b = oracle_reply(g, 3, 4, noise=0.5, seed=42)
    assert a[1] == b[1]
    c = oracle_reply(g, 3, 4, noise=0.5, seed=43)
    assert a[1] != c[1] or a[0] == b[0]


def test_oracle_noise_one_accuracy_near_chance():
    g = labeled_graph(n=200, classes=4, seed=3)
    rng = np.random.default_rng(0)
    hits = 0
    draws = 10000
    for i in range(draws):
        v = int(rng.integers(g.num_nodes))
        k = int(rng.integers(NUM_TIE_CONFIGS))
        _, guesses = oracle_reply(g, v, k, noise=1.0, seed=i)
        hits += guesses[0][0] == g.class_names[g.labels[v]]
    assert hits / draws == pytest.approx(0.25, abs=0.02)


def test_oracle_confidence_formula():
    g = labeled_graph()
    _, guesses = oracle_reply(g, 0, 0, noise=0.5, seed=0)
    assert guesses[0][1] == 80  # 100 - 40 * 0.5
    others = [c for _, c in guesses[1:]]
    assert all(c == 10 for c in others)


def test_oracle_client_matches_direct_call():
    g = labeled_graph()
    client = SyntheticOracleClient(g, noise=0.3, seed=5)
    spec = build_prompt(g.homophily_tie(2, 3), g.texts, g.class_names, model="oracle")
    resp = client.complete(spec)
    direct, _ = reference_oracle(g.homophily_tie(2, 3), g, noise=0.3, seed=5)
    assert resp.text == direct
    assert resp.tokens_in == 0 and resp.tokens_out == 0


def reference_oracle(tie, graph, noise, seed):
    """The oracle as first written: a NumPy vote tally, a generator seeded from
    the list ``[seed, center, k]`` and ``json.dumps``; returns the response
    and its guesses. Every response of ``SyntheticOracleClient`` must match
    it byte for byte."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    num_classes = graph.num_classes
    rng = np.random.default_rng([seed, tie.center, tie.config_k])

    votes = np.zeros(num_classes)
    for member, role in zip(tie.members, tie.roles):
        truth = graph.labels[member]
        if truth is None:
            continue
        if rng.random() < noise:
            vote = int(rng.integers(num_classes))
        else:
            vote = truth
        votes[vote] += 2.0 if role == ROLE_SELF else 1.0
    winner = int(votes.argmax())
    share = votes[winner] / votes.sum() if votes.sum() > 0 else 1.0

    top_conf = int(round((100 - 40 * noise) * share))
    rest = (100 - top_conf) / (num_classes - 1) if num_classes > 1 else 0
    guesses = [(graph.class_names[winner], top_conf)]
    for c in range(num_classes):
        if c != winner:
            guesses.append((graph.class_names[c], int(round(rest))))
    raw = json.dumps(
        [{"answer": label, "confidence": conf} for label, conf in guesses]
    )
    return raw, guesses


# class names that json.dumps escapes: quotes, a backslash, non-ASCII, a tab
ODD_NAMES = ['Say "hi"', "back\\slash", "Café", "神经网络", "tab\there"]


def relabelled(g, rng, num_classes):
    """``g`` with ``num_classes`` odd class names and about a third of its
    nodes unlabelled, node 0 and all its one-hop neighbours among them."""
    blank = set(g.predecessors[0]) | set(g.successors[0]) | {0}
    labels = [None if v in blank or rng.random() < 0.3 else int(rng.integers(num_classes))
              for v in range(g.num_nodes)]
    return replace(g, labels=labels, class_names=ODD_NAMES[:num_classes])


ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 5]


@pytest.mark.parametrize("noise", [0.0, 0.3, 0.5, 1.0])
def test_oracle_equals_the_reference_response_for_response(noise):
    rng = np.random.default_rng(31)
    all_blank_ties = 0
    for num_classes in (1, 2, 3, 5):
        g = relabelled(random_graph(rng, max_nodes=24), rng, num_classes)
        client = {seed: SyntheticOracleClient(g, noise=noise, seed=seed) for seed in ORACLE_SEEDS}
        for v in range(g.num_nodes):
            for k in range(NUM_TIE_CONFIGS):
                tie = g.homophily_tie(v, k)
                all_blank_ties += len(tie.members) > 1 and all(g.labels[m] is None for m in tie.members)
                spec = build_prompt(tie, g.texts, g.class_names)
                for seed in ORACLE_SEEDS:
                    want = reference_oracle(tie, g, noise, seed)
                    text = client[seed].complete(spec).text
                    assert (text, parse_response(text, g.class_names)) == want, (
                        f"classes={num_classes} v={v} k={k} seed={seed}"
                    )
    assert all_blank_ties > 0


def test_oracle_responses_of_every_tie_are_pinned():
    # Computed with the oracle as first written (``reference_oracle``): the
    # benchmark's and every offline run's responses, and so their
    # pseudo-labels, depend on these bytes.
    g = synthetic_citation_graph(n=800, num_classes=7, alpha=0.85, avg_out_degree=2.0, seed=5)
    client = SyntheticOracleClient(g, noise=0.3, seed=17)
    responses = hashlib.sha256()
    for v in range(g.num_nodes):
        for spec in node_prompts(g, v):  # configuration order
            responses.update(client.complete(spec).text.encode())
            responses.update(b"\n")
    assert responses.hexdigest() == "d3151b0c9c859ff118925930828b809a338a8edd35b6796052c644abbff7b861"


@pytest.mark.parametrize("noise, seed", [(-0.1, 0), (1.5, 0), (float("nan"), 0), (0.3, -1)])
def test_oracle_rejects_bad_settings_at_construction(noise, seed):
    g = labeled_graph(n=4)
    with pytest.raises(ValueError):
        SyntheticOracleClient(g, noise=noise, seed=seed)


# --- annotate_graph -----------------------------------------------------------------

def test_annotate_graph_eight_workers_per_node():
    g = labeled_graph(n=12)
    cache = ResponseCache()
    budget = BudgetState(limit_usd=1.0)
    client = SyntheticOracleClient(g, noise=0.2, seed=0)
    results = annotate_graph(g, [0, 1, 2], client, cache, budget, model="oracle")
    assert results.nodes.tolist() == [0, 1, 2]
    assert results.top1.shape == (3, NUM_TIE_CONFIGS)
    assert results.mass.shape == (3, NUM_TIE_CONFIGS, g.num_classes)
    for v, row in zip([0, 1, 2], results.prompt_hashes):
        # configuration order, each the prompt of the node's own tie
        assert row == [spec.prompt_hash for spec in node_prompts(g, v, model="oracle")]


def test_annotate_graph_concurrent_matches_serial(tmp_path):
    g = labeled_graph(n=10)
    budget = BudgetState(limit_usd=1.0)
    client = SyntheticOracleClient(g, noise=0.4, seed=9)
    serial = annotate_graph(g, list(range(10)), client, ResponseCache(), budget, model="o")
    parallel = annotate_graph(
        g, list(range(10)), client, ResponseCache(), BudgetState(limit_usd=1.0),
        model="o", max_inflight=4,
    )
    np.testing.assert_array_equal(serial.top1, parallel.top1)
    np.testing.assert_array_equal(serial.mass, parallel.mass)


class SleepingOracle:
    """Oracle client that sleeps per request and records what it was sent."""

    def __init__(self, graph, delay_s=0.01):
        self.oracle = SyntheticOracleClient(graph, noise=0.4, seed=9)
        self.delay_s = delay_s
        self.sent = []
        self.lock = threading.Lock()

    def complete(self, prompt):
        time.sleep(self.delay_s)
        with self.lock:
            self.sent.append(prompt.prompt_hash)
        return self.oracle.complete(prompt)


def test_annotate_graph_concurrent_dispatches_each_prompt_once():
    g = labeled_graph(n=10)
    runs = {}
    for inflight in (1, 4):
        client = SleepingOracle(g)
        results = annotate_graph(
            g, list(range(10)), client, ResponseCache(), BudgetState(limit_usd=1.0),
            model="o", max_inflight=inflight,
        )
        runs[inflight] = (client.sent, results)
    serial_sent, serial = runs[1]
    parallel_sent, parallel = runs[4]
    # some ties share a member set, hence a prompt
    assert len(set(serial_sent)) == len(serial_sent) < 10 * NUM_TIE_CONFIGS
    assert sorted(parallel_sent) == sorted(serial_sent)
    np.testing.assert_array_equal(parallel.top1, serial.top1)
    np.testing.assert_array_equal(parallel.mass, serial.mass)
    assert parallel.prompt_hashes == serial.prompt_hashes


def test_annotate_graph_parses_each_distinct_prompt_once(monkeypatch):
    g = labeled_graph(n=10)
    calls = []
    scan = annotate_module._scan

    def counting_scan(raw, *args):
        calls.append(raw)
        return scan(raw, *args)

    monkeypatch.setattr(annotate_module, "_scan", counting_scan)
    for inflight in (1, 4):
        calls.clear()
        client = SyntheticOracleClient(g, noise=0.4, seed=9)
        results = annotate_graph(
            g, list(range(10)), client, ResponseCache(), BudgetState(limit_usd=1.0),
            model="o", max_inflight=inflight,
        )
        first: dict[str, tuple[int, int]] = {}
        for v in range(10):
            for k, h in enumerate(results.prompt_hashes[v]):
                if h in first:
                    u, j = first[h]
                    assert results.top1[v, k] == results.top1[u, j]
                    np.testing.assert_array_equal(results.mass[v, k], results.mass[u, j])
                else:
                    first[h] = v, k
        assert len(first) < 10 * NUM_TIE_CONFIGS
        assert len(calls) == len(first)


def test_annotate_graph_respects_rate_limit_quickly():
    # just exercises the limiter path; generous rate so it stays fast
    g = labeled_graph(n=4)
    client = SyntheticOracleClient(g, noise=0.0, seed=0)
    results = annotate_graph(
        g, [0, 1], client, ResponseCache(), BudgetState(limit_usd=1.0),
        model="o", requests_per_second=10000.0,
    )
    assert len(results.nodes) == 2


def test_distinct_prompts_per_config():
    g = labeled_graph(n=20, seed=2)
    v = max(range(20), key=g.degree)
    hashes = {
        build_prompt(g.homophily_tie(v, k), g.texts, g.class_names, model="m").prompt_hash
        for k in range(NUM_TIE_CONFIGS)
    }
    assert len(hashes) >= 4  # configs with identical member sets may collide


def test_worker_vote_distribution_uses_center_double_weight():
    # center weight 2 means a single dissenting neighbor cannot flip the vote
    g = tiny_graph([(1, 0)], n=2, num_classes=2)
    g.labels[0] = 0
    g.labels[1] = 1
    wins = Counter()
    for seed in range(300):
        _, guesses = oracle_reply(g, 0, 1, noise=0.0, seed=seed)
        wins[guesses[0][0]] += 1
    assert wins["Class_0"] == 300


class MeteredStub:
    """Oracle answers with token usage, so spend moves; thread-safe."""

    def __init__(self, graph):
        self.oracle = SyntheticOracleClient(graph, noise=0.4, seed=3)
        self.lock = threading.Lock()
        self.sent = []

    def complete(self, prompt):
        text = self.oracle.complete(prompt).text
        with self.lock:
            self.sent.append(prompt.prompt_hash)
        return ClientResponse(text, estimate_tokens(prompt.body), estimate_tokens(text))


def test_annotate_graph_serial_and_concurrent_agree_across_chunks(tmp_path):
    g = labeled_graph(n=2 * CHUNK_NODES + 37, seed=4)
    nodes = list(range(g.num_nodes))
    runs = {}
    for inflight in (1, 8):
        client, budget = MeteredStub(g), BudgetState(limit_usd=100.0)
        cache_path = tmp_path / f"{inflight}.jsonl"
        with ResponseCache(cache_path) as cache:
            results = annotate_graph(g, nodes, client, cache, budget, model="o", max_inflight=inflight)
        runs[inflight] = (results.top1, results.mass, results.prompt_hashes, client.sent,
                          budget.spent_usd, cache_path.read_text().count("\n"))
    top1, mass, hashes, sent, spent, lines = runs[1]
    assert top1.shape == (len(nodes), NUM_TIE_CONFIGS) and top1.dtype == np.int16
    assert mass.shape == (len(nodes), NUM_TIE_CONFIGS, g.num_classes) and mass.dtype == np.int32
    first_occurrences = list(dict.fromkeys(h for row in hashes for h in row))
    assert sent == first_occurrences
    assert len(sent) == lines < len(nodes) * NUM_TIE_CONFIGS
    for inflight, (t, m, h, s, spend, n) in runs.items():
        np.testing.assert_array_equal(t, top1)
        np.testing.assert_array_equal(m, mass)
        assert t.dtype == top1.dtype and m.dtype == mass.dtype
        assert h == hashes and n == lines
        # serial sends in first-occurrence order; concurrent sends the same set
        assert (s if inflight == 1 else sorted(s)) == (sent if inflight == 1 else sorted(sent))
        assert spend == pytest.approx(spent, rel=1e-12)


def test_annotate_graph_repeats_the_first_row_of_a_repeated_prompt_across_chunks():
    g = labeled_graph(n=CHUNK_NODES + 1, seed=2)
    nodes = [0, *range(2, CHUNK_NODES + 1), 0]  # node 0 again, in the second chunk
    client = SleepingOracle(g, delay_s=0.0)
    results = annotate_graph(g, nodes, client, ResponseCache(), BudgetState(limit_usd=1.0))
    top1, mass, hashes = results.top1, results.mass, results.prompt_hashes
    assert hashes[-1] == hashes[0]
    np.testing.assert_array_equal(top1[-1], top1[0])
    np.testing.assert_array_equal(mass[-1], mass[0])
    assert len(client.sent) == len({h for row in hashes for h in row})


def test_fully_cached_annotate_graph_decodes_each_record_once(tmp_path, monkeypatch):
    g = labeled_graph(n=2 * CHUNK_NODES + 37, seed=4)
    nodes = list(range(g.num_nodes))
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        first = annotate_graph(g, nodes, MeteredStub(g), cache, BudgetState(limit_usd=100.0),
                               model="o")
    records = path.read_text(encoding="utf-8").count("\n")

    decodes = _count_json_decodes(monkeypatch)
    client = MeteredStub(g)
    with ResponseCache(path) as cache:
        again = annotate_graph(g, nodes, client, cache, BudgetState(limit_usd=100.0), model="o")
    assert client.sent == []
    assert 0 < len(decodes) <= records
    for a, b in zip(vars(first).values(), vars(again).values()):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        else:
            assert a == b
