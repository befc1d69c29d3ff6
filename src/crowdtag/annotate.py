"""LLM workers over homophily-tie prompts: building, querying, caching.

Each (node, configuration) pair is one "worker": a prompt built from the
texts of the tie members, sent to a chat-completions endpoint, parsed into a
ranked guess list. Responses are cached in an append-only JSONL file keyed by
a content hash of (model, prompt body), so a second run never re-queries, and
every request is charged against a dollar budget. Nodes are annotated in
chunks of ``CHUNK_NODES``, so the prompts held at once stay bounded however
large the graph is.

A synthetic oracle client stands in for the remote model in tests and
offline runs: it votes per tie member from ground truth under a noise rate
and emits the same JSON response shape the prompt requests.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import math
import os
import re
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .graph import (
    NUM_TIE_CONFIGS,
    ROLE_PRED,
    ROLE_PRED_OF_PRED,
    ROLE_PRED_OF_SUCC,
    ROLE_SELF,
    ROLE_SUCC,
    ROLE_SUCC_OF_PRED,
    ROLE_SUCC_OF_SUCC,
    DirectedTAG,
    HomophilyTie,
)

CACHE_SCHEMA_VERSION = 1

# How every line that ``ResponseCache.put`` writes begins: ``json.dumps`` of a
# record whose first key is ``hash``, a 64-digit lowercase hex prompt hash.
_PUT_PREFIX = re.compile(rb'\{"hash": "([0-9a-f]{64})", ')

# Longest wait, in seconds, that a 429 response's Retry-After can impose.
RETRY_AFTER_CAP_S = 120.0

# Nodes whose prompts are built and sent together: bounds the prompts held at
# once (eight per node) and the requests submitted to the pool at once.
CHUNK_NODES = 64


class BudgetExhaustedError(RuntimeError):
    """Spend has reached the configured dollar limit."""


class TransportError(RuntimeError):
    """Request failed after all retries."""


class ResponseParseError(ValueError):
    """No well-formed guess array found in the response text."""


class CacheLockedError(RuntimeError):
    """Another process holds the response cache file open for appending."""


class CorruptCacheError(RuntimeError):
    """The response cache file holds a line that is not a record ``put``
    could have written; the message starts with the file's path."""


class CacheIndexError(CorruptCacheError):
    """A cache line no longer holds the record the index recorded for it."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Caps that bound prompt size (and therefore token cost).

    Neighbors beyond ``max_neighbors_per_role`` are dropped deterministically,
    keeping the lowest node ids.
    """

    max_neighbors_per_role: int = 5
    neighbor_text_chars: int = 600
    center_text_chars: int = 1200


@dataclass(frozen=True)
class PromptSpec:
    center: int
    config_k: int
    body: str
    category_list: tuple[str, ...]
    guess_count: int
    prompt_hash: str


@dataclass(frozen=True)
class Guesses:
    """The eight workers' guesses for ``n`` nodes, as :func:`annotate_graph`
    records them, rows in the order the nodes were given."""

    nodes: np.ndarray  # (n,) int64 node ids
    # (n, 8) int16: each worker's first-ranked class, -1 where its response
    # did not parse; column k is configuration k
    top1: np.ndarray
    mass: np.ndarray  # (n, 8, C) int32: each worker's confidences summed per class
    prompt_hashes: list[list[str]]  # per node, its eight prompts' hashes


@dataclass
class BudgetState:
    """Dollar accounting; refuses new requests once the money already spent
    reaches the limit. Requests in flight are not counted until they are
    charged, so the spend can pass the limit by as many requests as are in
    flight."""

    limit_usd: float
    price_per_1k_in: float = 0.0005
    price_per_1k_out: float = 0.0015
    spent_usd: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def check(self) -> None:
        with self._lock:
            if not self.spent_usd < self.limit_usd:  # also refuses a NaN limit
                raise BudgetExhaustedError(
                    f"budget exhausted: spent ${self.spent_usd:.4f} of ${self.limit_usd:.4f}"
                )

    def charge(self, tokens_in: int, tokens_out: int) -> None:
        cost = tokens_in / 1000.0 * self.price_per_1k_in + tokens_out / 1000.0 * self.price_per_1k_out
        with self._lock:
            self.spent_usd += cost


def estimate_tokens(text: str) -> int:
    """Rough token estimate when the server omits usage data."""
    return math.ceil(len(text) / 4)


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

_ROLE_PHRASES = {
    ROLE_PRED: "which is cited by the paper(s) that",
    ROLE_SUCC: "which cites the paper(s) that",
    ROLE_PRED_OF_PRED: "which is cited by paper(s) that are in turn cited by the paper(s) that",
    ROLE_SUCC_OF_SUCC: "which cites paper(s) that in turn cite the paper(s) that",
    ROLE_SUCC_OF_PRED: "which is co-cited, by its citing paper(s), together with the paper(s) that",
    ROLE_PRED_OF_SUCC: "which shares a cited paper with the paper(s) that",
}


def _clip(text: str, limit: int) -> str:
    text = " ".join(text.split())
    return text if len(text) <= limit else text[:limit].rstrip() + "..."


class ClippedTexts:
    """``clip(m, limit)``: node ``m``'s text clipped as a prompt shows it,
    computed once per node and limit. A text that clipping leaves unchanged is
    kept by reference, so the memo costs one list slot per node and limit."""

    def __init__(self, texts: list[str]) -> None:
        self.texts = texts
        self._by_limit: dict[int, list[str | None]] = {}

    def clip(self, m: int, limit: int) -> str:
        memo = self._by_limit.get(limit)
        if memo is None:
            memo = self._by_limit[limit] = [None] * len(self.texts)
        text = memo[m]
        if text is None:
            text = self.texts[m]
            clipped = _clip(text, limit)
            text = memo[m] = text if clipped == text else clipped
        return text


def prompt_hash(model: str, body: str) -> str:
    digest = hashlib.sha256()
    digest.update(model.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(body.encode("utf-8"))
    return digest.hexdigest()


def build_prompt(
    tie: HomophilyTie,
    texts: list[str],
    class_names: list[str],
    policy: TruncationPolicy = TruncationPolicy(),
    model: str = "",
    clipped: ClippedTexts | None = None,
) -> PromptSpec:
    """Render the annotation prompt for one tie.

    The center's text appears first; each of ``tie.groups``, in order,
    contributes one clause listing its member texts, truncated per the
    policy. The instruction asks for exactly ``len(class_names)``
    ranked guesses with confidences meant to sum to 100. ``clipped``, a memo
    over the same ``texts``, lets the prompts of many ties clip each text once.
    """
    return _render(tie.center, [(tie.config_k, tie.groups)], texts, class_names, policy, model, clipped)[0]


def node_prompts(
    graph: DirectedTAG,
    v: int,
    policy: TruncationPolicy = TruncationPolicy(),
    model: str = "",
    clipped: ClippedTexts | None = None,
) -> list[PromptSpec]:
    """The eight prompts of node ``v`` in configuration order, each the one
    :func:`build_prompt` renders for ``graph.homophily_tie(v, k)`` over the
    graph's texts and class names, rendered in one pass from the groups of
    :meth:`DirectedTAG.tie_groups`."""
    ties = [(k, graph.tie_groups(v, k)) for k in range(NUM_TIE_CONFIGS)]
    return _render(v, ties, graph.texts, graph.class_names, policy, model, clipped)


def _render(
    center: int,
    ties: list[tuple[int, tuple[tuple[str, tuple[int, ...]], ...]]],
    texts: list[str],
    class_names: list[str],
    policy: TruncationPolicy,
    model: str,
    clipped: ClippedTexts | None,
) -> list[PromptSpec]:
    """The prompts of ties ``(config_k, groups)`` around one ``center``. The
    center's text, each distinct group's clause and the category list with the
    task are rendered once, and every body is hashed on from one sha256 state
    over ``model\\0`` and the center's text, so each hash is
    ``prompt_hash(model, body)``."""
    if not class_names:
        raise ValueError("class_names must not be empty")
    if clipped is not None:
        clip = clipped.clip
    else:
        def clip(m: int, limit: int) -> str:
            return _clip(texts[m], limit)

    categories = tuple(class_names)
    tail = _prompt_tail(categories)
    head = f"The content of the paper is {clip(center, policy.center_text_chars)}"
    state = hashlib.sha256(f"{model}\0{head}".encode("utf-8"))
    cap, limit = policy.max_neighbors_per_role, policy.neighbor_text_chars
    clauses: dict[tuple[str, tuple[int, ...]], str] = {}
    specs = []
    for config_k, groups in ties:
        parts = []
        for group in groups:
            clause = clauses.get(group)
            if clause is None:
                role, members = group
                joined = " ; ".join(clip(m, limit) for m in members[:cap])
                clause = clauses[group] = f", {_ROLE_PHRASES[role]} {joined}"
            parts.append(clause)
        parts.append(tail)
        rest = "".join(parts)
        digest = state.copy()
        digest.update(rest.encode("utf-8"))
        specs.append(PromptSpec(
            center=center,
            config_k=config_k,
            body=head + rest,
            category_list=categories,
            guess_count=len(categories),
            prompt_hash=digest.hexdigest(),
        ))
    return specs


@functools.lru_cache(maxsize=16)
def _prompt_tail(class_names: tuple[str, ...]) -> str:
    """The end of every prompt: the category list and the task."""
    categories = ", ".join(class_names)
    return (
        f". There are following categories: {categories}.\n"
        f"Task: What's the category of this paper? Provide your {len(class_names)} best guesses"
        " and a confidence number that each is correct (0 to 100) for the following"
        " question from the most probable to the least. The sum of all confidence"
        ' should be 100. For example, [{"answer": <your_first_answer>,'
        ' "confidence": <confidence_for_first_answer>}, ...]'
    )


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------

def parse_response(raw: str, class_names: list[str]) -> list[tuple[str, int]]:
    """Extract the first well-formed guess array from arbitrary response text.

    Tolerates surrounding prose and code fences. Labels are matched to
    ``class_names`` case-insensitively (unmatched entries dropped);
    confidences are clamped to [0, 100]. Raises ResponseParseError when
    nothing usable is found.
    """
    cells: list[int] = []
    confs: list[int] = []
    if _scan(raw, _label_lookup(tuple(class_names)), 0, cells, confs) < 0:
        raise ResponseParseError("no parseable guess array in response")
    return [(class_names[c], conf) for c, conf in zip(cells, confs)]


_DECODER = json.JSONDecoder()


@functools.lru_cache(maxsize=16)
def _label_lookup(class_names: tuple[str, ...]) -> dict[str, int]:
    """Answer -> class index, for each normalised (stripped, lower-case) class
    name and each class name as written; read-only, shared by every scan. A
    name normalised like a later one maps to the later one's index."""
    canonical = {c.strip().lower(): i for i, c in enumerate(class_names)}
    return {**canonical, **{c: canonical[c.strip().lower()] for c in class_names}}


def _scan(raw: str, labels: dict[str, int], base: int, cells: list[int], confs: list[int]) -> int:
    """Scan response ``raw`` for its first usable guess array, the one
    :func:`parse_response` returns: for each guess, in ranked order, append
    ``base`` plus its class index (``labels`` of its answer) to ``cells`` and
    its confidence, clamped to [0, 100], to ``confs``. Returns the class of
    the first guess, or -1, having appended nothing, when no array is usable.
    """
    start = 0
    while (idx := raw.find("[", start)) >= 0:
        start = idx + 1
        try:
            value, _ = _DECODER.raw_decode(raw, idx)
        except ValueError:  # JSONDecodeError
            continue
        first = -1
        for item in value:  # a JSON array, as it began with "["
            if not isinstance(item, dict):
                continue
            answer = item.get("answer")
            if not isinstance(answer, str):
                continue
            c = labels.get(answer)
            if c is None:
                c = labels.get(answer.strip().lower())
                if c is None:
                    continue
            conf = item.get("confidence", 0)
            if type(conf) is not int or not 0 <= conf <= 100:
                try:
                    conf = max(0, min(100, int(round(float(conf)))))  # JSON allows 9e999 -> inf
                except (TypeError, ValueError, OverflowError):
                    conf = 0
            cells.append(base + c)
            confs.append(conf)
            if first < 0:
                first = c
        if first >= 0:
            return first
    return -1


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------

@dataclass
class ClientResponse:
    text: str
    tokens_in: int = 0
    tokens_out: int = 0


class Client(Protocol):
    def complete(self, prompt: PromptSpec) -> ClientResponse: ...


class HttpChatClient:
    """Chat-completions client over HTTP POST.

    The API key is read from the environment variable named in the config,
    never passed on the command line. Transport errors, 429 and 5xx retry
    with exponential backoff before raising TransportError; a 429 whose
    Retry-After gives delta-seconds waits that long instead, up to
    ``RETRY_AFTER_CAP_S``. Any other 4xx or a malformed body raises it after
    one attempt.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        temperature: float = 0.0,
        timeout_s: float = 60.0,
        retries: int = 3,
        backoff_s: float = 1.0,
        session=None,
    ) -> None:
        import requests

        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.temperature = temperature
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.session = session or requests.Session()

    def complete(self, prompt: PromptSpec) -> ClientResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt.body}],
            "temperature": self.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_s * 2 ** (attempt - 1) if retry_after is None else retry_after)
                retry_after = None
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout_s
                )
            except OSError as exc:  # requests' connection errors and timeouts included
                last_error = exc
                continue
            status = resp.status_code
            if status == 429 or status >= 500:
                last_error = TransportError(f"HTTP {status}")
                wait = resp.headers.get("Retry-After", "").strip()
                if status == 429 and wait.isdecimal():  # delta-seconds; a date is not honoured
                    retry_after = min(float(wait), RETRY_AFTER_CAP_S)
                continue
            if status >= 400:
                raise TransportError(f"request rejected with HTTP {status}; not retried")
            try:
                data = resp.json()
                text = data["choices"][0]["message"]["content"] or ""
            except (ValueError, LookupError, TypeError) as exc:
                raise TransportError(f"malformed response body: {exc!r}") from exc
            usage = data.get("usage") or {}
            return ClientResponse(
                text=text,
                tokens_in=int(usage.get("prompt_tokens", estimate_tokens(prompt.body))),
                tokens_out=int(usage.get("completion_tokens", estimate_tokens(text))),
            )
        raise TransportError(
            f"request failed after {self.retries + 1} attempts: {last_error}"
        ) from last_error


def _oracle_vote(
    graph: DirectedTAG,
    center: int,
    config_k: int,
    members: tuple[int, ...],
    roles: tuple[str, ...],
    noise: float,
    seed: int,
) -> tuple[list[int], list[int]]:
    """The vote of :class:`SyntheticOracleClient` over a tie's ``members``
    and ``roles``: its ranked classes and their confidences."""
    num_classes = len(graph.class_names)
    # SeedSequence turns the list [seed, center, k] into these uint32 words
    rng = np.random.default_rng(
        np.array([*_seed_words(seed), center, config_k], dtype=np.uint32)
    )
    draw, draw_class = rng.random, rng.integers

    # weights are 1.0 and 2.0, so every sum is exact, as in float64 arrays
    votes = [0.0] * num_classes
    labels = graph.labels
    for member, role in zip(members, roles):
        truth = labels[member]
        if truth is None:
            continue
        vote = int(draw_class(num_classes)) if draw() < noise else truth
        votes[vote] += 2.0 if role == ROLE_SELF else 1.0
    top, total = max(votes), sum(votes)
    winner = votes.index(top)  # the first maximum, as argmax picks it
    share = top / total if total > 0 else 1.0

    top_conf = int(round((100 - 40 * noise) * share))
    rest = int(round((100 - top_conf) / (num_classes - 1))) if num_classes > 1 else 0
    order = [winner, *(c for c in range(num_classes) if c != winner)]
    return order, [top_conf] + [rest] * (num_classes - 1)


def _oracle_reply(answer: tuple[str, ...], order: list[int], confs: list[int]) -> str:
    """``json.dumps`` of ``[{"answer": label, "confidence": conf}, ...]``,
    from the :func:`_answer_prefixes` ``answer`` of the class names."""
    return "[" + ", ".join(f"{answer[c]}{conf}}}" for c, conf in zip(order, confs)) + "]"


def _check_oracle_settings(noise: float, seed: int) -> None:
    if not 0.0 <= noise <= 1.0:  # also refuses NaN
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@functools.lru_cache(maxsize=16)
def _seed_words(seed: int) -> tuple[int, ...]:
    """``seed`` as SeedSequence reads an int: its 32-bit words, least
    significant first, at least one."""
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return tuple(words)


@functools.lru_cache(maxsize=16)
def _answer_prefixes(class_names: tuple[str, ...]) -> tuple[str, ...]:
    """Per class, its reply entry as ``json.dumps`` writes it, up to the
    confidence: ``{"answer": <name>, "confidence": ``."""
    return tuple(f'{{"answer": {json.dumps(c)}, "confidence": ' for c in class_names)


class SyntheticOracleClient:
    """Ground-truth-backed stand-in for a remote model; zero-cost responses.

    For the prompt of tie (center, config_k), every tie member casts a vote:
    its true label with probability ``1 - noise``, otherwise a uniformly
    random label. The center's vote counts twice. The plurality vote wins
    (ties to the lower class index) and receives confidence
    ``(100 - 40 * noise) * vote_share`` (rounded), so a unanimous tie yields
    the full ``100 - 40 * noise`` and a contested one proportionally less;
    the remainder is split evenly over the other labels. The response is the
    JSON guess array the prompt asks for. Deterministic given (seed, node,
    config): the draws come from ``np.random.default_rng([seed, center,
    config_k])``. Raises ValueError for a noise outside [0, 1] or a negative
    seed.
    """

    def __init__(self, graph: DirectedTAG, noise: float, seed: int) -> None:
        _check_oracle_settings(noise, seed)
        self.graph = graph
        self.noise = noise
        self.seed = seed
        self._answer = _answer_prefixes(tuple(graph.class_names))

    def complete(self, prompt: PromptSpec) -> ClientResponse:
        """The oracle's response to ``prompt``'s tie."""
        v, k = prompt.center, prompt.config_k
        _, members, roles = self.graph.tie_members(v, k)
        order, confs = _oracle_vote(self.graph, v, k, members, roles, self.noise, self.seed)
        return ClientResponse(text=_oracle_reply(self._answer, order, confs), tokens_in=0, tokens_out=0)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

class ResponseCache:
    """Append-only JSONL response store, indexed by prompt hash.

    Each record: {hash, model, prompt, raw_response, tokens_in, tokens_out};
    a record that also holds a ``timestamp``, as earlier versions wrote,
    loads and replays the same. The file doubles as the replay fixture format
    for tests. Records lacking a ``hash`` key (e.g. the metadata header) are
    ignored on load.

    A file-backed cache holds no records in memory, only where each one's
    line lies in the file. Opening it decodes no line that ``put`` wrote: such
    a line is indexed from its fixed ``{"hash": "<64 hex digits>", `` prefix.
    ``get`` reads the line back through one read descriptor, held until
    ``close``, decodes it and checks that it still holds the record asked for
    (``CacheIndexError`` if not, which is also how a corrupt line before the
    last one surfaces). Without a path the cache keeps whole records in
    memory.

    Appending takes an exclusive ``flock`` on the file, held until ``close``,
    so one process at a time appends to it; a second one gets
    ``CacheLockedError`` from :meth:`open_for_append`, which
    :func:`annotate_graph` calls before it sends a request. Every ``put``
    flushes its line before returning, so a record is on disk for a fresh
    reader (or another process) as soon as ``put`` returns. ``close`` (or leaving a ``with`` block)
    releases both handles and the lock.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        # hash -> the record itself without a path; with one, the offset of
        # its line << 32 | the line's length in bytes
        self._index: dict[str, dict | int] = {}
        self._lock = threading.Lock()
        self._fh = None
        # the read descriptor and the finalizer that closes it, also when the
        # cache is dropped without close(); opened by the first get
        self._read_fd: int | None = None
        self._read_closer: weakref.finalize | None = None
        # bytes of the file indexed, and appended by this cache, so far
        self._end = 0
        # Byte offset of a torn final line (a crash mid-append), cut off
        # before the next append; None when the file ends cleanly.
        self.torn_tail_at: int | None = None
        # whether the final line lacks its newline (a crash just before it),
        # which the next append writes first
        self._unterminated = False
        if self.path is not None and self.path.exists():
            self._load()

    def __enter__(self) -> ResponseCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _load(self) -> None:
        """Index the file's records. A line that ``put`` wrote, whole, is
        indexed from its prefix; any other line is decoded. A malformed
        *final* line is skipped and reported; a whole final record that only
        lacks its newline is kept, and the next append ends its line first. A
        malformed line before the last raises JSONDecodeError, unless it keeps
        ``put``'s prefix and ending, in which case ``get`` raises
        CacheIndexError for its hash."""
        index: dict[str, int] = {}
        torn: json.JSONDecodeError | None = None
        torn_at = offset = 0
        line = b""
        match = _PUT_PREFIX.match
        with open(self.path, "rb") as fh:
            for line in fh:
                at, offset = offset, offset + len(line)
                if torn is not None:
                    if line.strip():
                        raise torn
                    continue
                prefix = match(line)
                if prefix is not None and line.endswith(b"}\n"):
                    index[prefix[1].decode("ascii")] = at << 32 | len(line)
                    continue
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    torn, torn_at = exc, at
                    continue
                if "hash" in record:
                    index[record["hash"]] = at << 32 | len(line)
        self._index, self._end, self.torn_tail_at = index, offset, None
        self._unterminated = torn is None and not line.endswith(b"\n") and offset > 0
        # the index describes the file now at the path: read from that one
        self._close_reader()
        if torn is not None:
            self.torn_tail_at = torn_at
            print(
                f"warning: {self.path}: skipped a torn final record at byte {torn_at}",
                file=sys.stderr,
            )

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: str) -> dict | None:
        with self._lock:
            entry = self._index.get(key)
            if entry is None or self.path is None:
                return entry
            if self._read_fd is None:
                self._read_fd = fd = os.open(self.path, os.O_RDONLY)
                self._read_closer = weakref.finalize(self, os.close, fd)
            offset = entry >> 32
            line = os.pread(self._read_fd, entry & 0xFFFFFFFF, offset)
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
            record = None
        if not isinstance(record, dict) or record.get("hash") != key:
            raise CacheIndexError(
                f"{self.path}: the line at byte {offset} no longer holds the record of "
                f"prompt {key}; the file was changed by something other than an append"
            )
        return record

    def put(self, record: dict) -> None:
        if self.path is None:
            with self._lock:
                self._index[record["hash"]] = record
            return
        line = (json.dumps(record) + "\n").encode("utf-8")
        with self._lock:
            self._open_append()
            self._fh.write(line)
            self._fh.flush()
            self._index[record["hash"]] = self._end << 32 | len(line)
            self._end += len(line)

    def open_for_append(self) -> None:
        """Open the file for appending and take its lock, unless already
        done; no-op without a path. Raises CacheLockedError while another
        process appends to the file."""
        if self.path is not None:
            with self._lock:
                self._open_append()

    def _open_append(self) -> None:
        if self._fh is not None:
            return
        fh = open(self.path, "ab")
        try:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise CacheLockedError(
                    f"response cache is being appended to by another run: {self.path}"
                ) from None
            # Another process may have appended (or cut a torn tail) since the
            # file was indexed; offsets and the tail must describe it as it is.
            if os.fstat(fh.fileno()).st_size != self._end:
                self._load()
            if self.torn_tail_at is not None:
                os.ftruncate(fh.fileno(), self.torn_tail_at)
                self._end, self.torn_tail_at = self.torn_tail_at, None
            elif self._unterminated:  # keep the final record: end its line
                fh.write(b"\n")
                fh.flush()
                self._end, self._unterminated = self._end + 1, False
        except BaseException:
            fh.close()
            raise
        self._fh = fh

    def close(self) -> None:
        """Close the read descriptor and the append handle and release the
        lock; a later ``get`` or ``put`` reopens what it needs."""
        with self._lock:
            self._close_reader()
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def _close_reader(self) -> None:
        if self._read_closer is not None:
            self._read_closer()
            self._read_fd = self._read_closer = None

    @staticmethod
    def write_header(path: str | Path, config_hash: str) -> None:
        header = {"meta": {"schema_version": CACHE_SCHEMA_VERSION, "config_hash": config_hash}}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")


class RateLimiter:
    """Token bucket; ``acquire`` blocks until a slot is available."""

    def __init__(self, rate_per_s: float | None, burst: int = 1) -> None:
        self.rate = rate_per_s
        self.capacity = max(1, burst)
        self.tokens = float(self.capacity)
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        if self.rate is None:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            time.sleep(wait)


# ---------------------------------------------------------------------------
# Annotation driver
# ---------------------------------------------------------------------------

def _answer(
    prompt: PromptSpec,
    client: Client,
    cache: ResponseCache,
    budget: BudgetState,
    model: str,
    limiter: RateLimiter | None,
) -> dict:
    """The cache record that answers ``prompt``: the cached one, or else one
    budgeted request, whose record is cached first. Budget exhaustion and
    transport failure raise their own error types, and a cache file that
    another process appends to raises CacheLockedError before the request is
    sent."""
    cached = cache.get(prompt.prompt_hash)
    if cached is not None:
        return cached

    budget.check()
    cache.open_for_append()
    if limiter is not None:
        limiter.acquire()
    response = client.complete(prompt)
    budget.charge(response.tokens_in, response.tokens_out)
    record = {
        "hash": prompt.prompt_hash,
        "model": model,
        "prompt": prompt.body,
        "raw_response": response.text,
        "tokens_in": response.tokens_in,
        "tokens_out": response.tokens_out,
    }
    cache.put(record)
    return record


def annotate_graph(
    graph: DirectedTAG,
    nodes: list[int],
    client: Client,
    cache: ResponseCache,
    budget: BudgetState,
    model: str = "",
    policy: TruncationPolicy = TruncationPolicy(),
    max_inflight: int = 1,
    requests_per_second: float | None = None,
) -> Guesses:
    """Run all eight workers for every node of ``nodes`` and record their
    guesses.

    Ties with identical member sets share a prompt hash. Each distinct hash
    is dispatched once, in first-occurrence order, so concurrent runs neither
    pay for a prompt twice nor differ from the serial path. Requests run
    concurrently up to ``max_inflight``; cache and budget updates are
    lock-protected. The pool gets the prompts of ``CHUNK_NODES`` nodes at a
    time.

    Each response, fresh or cached, is scanned once straight into its row's
    ``mass`` cells and ``top1``, and a repeated prompt copies the row of its
    first occurrence, so the memory held beyond one chunk is the arrays, the
    hashes and the first position of each distinct hash. A response that
    does not parse leaves top1 -1 and zero mass.
    """
    w, num_classes = NUM_TIE_CONFIGS, len(graph.class_names)
    labels = _label_lookup(tuple(graph.class_names))
    limiter = RateLimiter(requests_per_second, burst=max_inflight)
    clipped = ClippedTexts(graph.texts)
    top1 = np.full(len(nodes) * w, -1, dtype=np.int16)
    mass = np.zeros((len(nodes) * w, num_classes), dtype=np.int32)
    hashes: list[list[str]] = []
    # position of the first prompt with each hash
    first: dict[str, int] = {}

    def work(spec: PromptSpec) -> dict:
        return _answer(spec, client, cache, budget, model, limiter)

    with ThreadPoolExecutor(max_workers=max_inflight) if max_inflight > 1 else nullcontext() as pool:
        dispatch = pool.map if pool is not None else map
        for lo in range(0, len(nodes), CHUNK_NODES):
            specs = [
                spec
                for v in nodes[lo:lo + CHUNK_NODES]
                for spec in node_prompts(graph, v, policy, model, clipped)
            ]
            start, m = lo * w, len(specs)
            rows = np.arange(start, start + m)
            source = np.array(
                [first.setdefault(spec.prompt_hash, i) for i, spec in enumerate(specs, start)],
                dtype=np.intp,
            )
            own = source == rows
            fresh = [spec for spec, o in zip(specs, own.tolist()) if o]
            records = list(dispatch(work, fresh))
            # cells count from the chunk's first row; one bincount sums them
            cells: list[int] = []
            confs: list[int] = []
            top1[rows[own]] = [
                _scan(record["raw_response"], labels, r * num_classes, cells, confs)
                for r, record in zip(np.flatnonzero(own).tolist(), records)
            ]
            mass[start:start + m] = np.bincount(
                np.asarray(cells, dtype=np.intp), weights=confs, minlength=m * num_classes
            ).reshape(m, num_classes)
            top1[rows[~own]], mass[rows[~own]] = top1[source[~own]], mass[source[~own]]
            hashes.extend(
                [spec.prompt_hash for spec in specs[j:j + w]] for j in range(0, m, w)
            )
    return Guesses(
        np.array(nodes, dtype=np.int64), top1.reshape(-1, w), mass.reshape(-1, w, num_classes), hashes
    )
