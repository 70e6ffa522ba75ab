"""Vectorized parse + enrich stage (the engine's hot path).

One ``map_batches`` stage replaces the reference's per-line
producer/consumer loop (``main.go:684-790``): Arrow batches in, Arrow
batches out.

Per batch:

1. ``tokens -> line`` via the zero-copy byte codec;
2. per-source format lookup (explicit config, never sniffed);
3. field extraction once per format present in the batch, on that
   format's lines — the same anchored patterns as the reference's five
   parsers (``logparsers/httpservers.go:169-318``), vectorized — with
   the fields scattered back to input row order; everything below runs
   once over the whole batch;
4. timestamps: vectorized ``strptime`` of the local clock fields plus a
   numeric-offset column (the metric time window uses the *local* clock,
   ``handlers/metricgenerator.go:131-158``);
5. enrichment per **unique value** (dictionary-encode, classify the
   dictionary, scatter back): the URI dictionary is classified by
   ``pyarrow.compute`` kernels (path, path1-3, malicious, utm_source;
   scalar ``split_path`` only for URIs Go would unescape or reject), and
   referer hosts and user agents through per-worker caches — their
   cardinality is tiny compared to row count, so the Python decision
   tree runs orders of magnitude fewer times than a row loop would;
6. robots.txt override, relevance flags, time-window column.

Runs as a task pool (:func:`make_parse_fn`): the caches are module-level,
so they persist across batches in each long-lived worker; an actor pool,
``ds.map_batches(ParseEnrich, concurrency=N, batch_format="pyarrow")``,
works too (SURVEY.md §2.4 ST1).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import decode_tokens
from ..config import JobConfig
from ..functions import loglines as L
from ..functions.ua import _BOTLIKE_FAMILIES, classify_user_agent

# ---- output schema ---------------------------------------------------------
ENRICHED_FIELDS = [
    ("doc_id", pa.string()),
    ("tokens", pa.list_(pa.int32())),
    ("n_tok", pa.int32()),
    ("source", pa.string()),
    ("parse_ok", pa.bool_()),
    ("domain", pa.string()),
    ("client_ip", pa.string()),
    ("remote_logname", pa.string()),
    ("remote_user", pa.string()),
    ("ts", pa.timestamp("s")),          # UTC wall time, null if unparseable
    ("ts_offset_sec", pa.int32()),      # original numeric zone offset
    ("method", pa.string()),
    ("path", pa.string()),
    ("path1", pa.string()),
    ("path2", pa.string()),
    ("path3", pa.string()),
    ("protocol", pa.string()),
    ("status", pa.string()),
    ("bytes_sent", pa.int64()),
    ("referer", pa.string()),
    ("ua_fullname", pa.string()),
    ("ua_os", pa.string()),
    ("ua_family", pa.string()),
    ("ua_device_type", pa.string()),
    ("ua_human", pa.string()),
    ("ua_intent", pa.string()),
    ("malicious", pa.int8()),
    ("time_window", pa.int64()),
]
ENRICHED_SCHEMA = pa.schema(ENRICHED_FIELDS)

# day exactly 2 digits / hour 1-2 digits: Go time.Parse layout semantics
# ("02" fixed-width vs "15" non-fixed), keep in lockstep with
# loglines._RE_APACHE_TS
_TS_PIECES = (
    r"^(?P<dt>\d{2}/(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)/\d{4}"
    r":\d{1,2}:\d{2}:\d{2}) (?P<sign>[+-])(?P<zh>\d{2})(?P<zm>\d{2})$"
)


# ---- per-unique caches ------------------------------------------------------
# Module-level so they amortize across batches AND across queries inside each
# long-lived Ray worker process (task pool) — same effect as actor state,
# without per-query actor-pool startup. The classified values are pure
# functions of the input string, so sharing across configs is safe. Bounded:
# cleared wholesale if they outgrow the cap (UA/referer cardinality is
# naturally small).
_CACHE_CAP = 1 << 19


class _Caches:
    __slots__ = ("uri", "ref", "ua")

    def __init__(self) -> None:
        # URI classification is vectorized (_classify_uris) and caches
        # nothing; ``uri`` stays, always empty, because perfbench's traced
        # replay (perfbench/tracing.py) reads len(_CACHES.uri)
        self.uri: dict[str, tuple] = {}
        self.ref: dict[str, str] = {}
        self.ua: dict[str, tuple] = {}


_CACHES = _Caches()


def _ref_host(referer: str, cache: dict) -> str:
    hit = cache.get(referer)
    if hit is None:
        if len(cache) > _CACHE_CAP:
            cache.clear()
        if referer:
            from ..functions.gourl import go_referer_hostname

            host = go_referer_hostname(referer)
            hit = "" if host is None else (host[4:] if host.startswith("www.") else host)
        else:
            hit = ""
        cache[referer] = hit
    return hit


def _ua_info(ua: str, cache: dict) -> tuple:
    hit = cache.get(ua)
    if hit is None:
        if len(cache) > _CACHE_CAP:
            cache.clear()
        r = classify_user_agent(ua)
        hit = (r.os, r.family, r.device_type, r.human, r.intent)
        cache[ua] = hit
    return hit


def _unpermute(order: np.ndarray) -> pa.Array:
    """Take indices that move rows concatenated in ``order`` (a
    permutation of input positions) back to input order."""
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order))
    return pa.array(inv)


# ---- URI -> path, path1-3, malicious, utm_source ----------------------------
# A request URI that starts with "/" and holds no "%" or control byte has,
# in Go's ParseRequestURI, no scheme, no authority and nothing to unescape:
# its path is the text before the first "?" and its raw query the text
# after it. Those URIs are classified by Arrow kernels; every other one
# ("", "*", percent escapes, absolute URLs, bad requests) goes through the
# scalar L.split_path.
_URI_SCALAR_ONLY = r"[%\x00-\x1f\x7f]"
_URI_PARTS = r"(?s)^(?P<path>[^?]*)\??(?P<query>.*)$"
# L.RE_UTM_SOURCE with a named group; RE2's "$" (no multi-line) is "\Z"
_UTM_SOURCE = r"(?:\?|&)utm_source=(?P<utm>[^&]+)(?:&|$)"


def _classify_uris(uris: pa.Array) -> tuple:
    """(path, path1, path2, path3, malicious, utm) per value of ``uris``,
    equal to ``L.split_path`` and ``L.RE_UTM_SOURCE``'s group 2; the
    string columns are Arrow arrays, malicious an int8 ndarray, and utm
    is null where the URI has no utm_source parameter."""
    simple = pc.and_not(pc.starts_with(uris, "/"),
                        pc.match_substring_regex(uris, _URI_SCALAR_ONLY))
    simple_np = simple.to_numpy(zero_copy_only=False)
    fast = uris.filter(simple)
    parts = pc.extract_regex(fast, _URI_PARTS)
    path = pc.struct_field(parts, "path")
    query = pc.struct_field(parts, "query")
    n_slash = pc.count_substring(path, "/")
    # "//" padding makes segments 1-3 exist; n_slash says which are real
    seg = pc.split_pattern(pc.binary_join_element_wise(path, "//", ""), "/",
                           max_splits=4)
    p1 = pc.binary_join_element_wise("", pc.list_element(seg, 1), "/")
    p2 = pc.if_else(pc.greater_equal(n_slash, 2),
                    pc.binary_join_element_wise(p1, pc.list_element(seg, 2), "/"),
                    "")
    p3 = pc.if_else(pc.greater_equal(n_slash, 3),
                    pc.binary_join_element_wise(p2, pc.list_element(seg, 3), "/"),
                    "")
    # precedence traversal > XSS > SQLi; "%00" cannot occur on this path
    mal = np.select(
        [pc.match_substring(path, "/../").to_numpy(zero_copy_only=False),
         pc.match_substring_regex(query, L.RE_XSS.pattern).to_numpy(zero_copy_only=False),
         pc.match_substring_regex(query, L.RE_SQLI.pattern).to_numpy(zero_copy_only=False)],
        [L.MALICIOUS_TRAVERSAL, L.MALICIOUS_XSS, L.MALICIOUS_SQLINJ],
        L.MALICIOUS_UNKNOWN,
    ).astype(np.int8)
    utm = pc.struct_field(pc.extract_regex(fast, _UTM_SOURCE), "utm")
    cols = [path, p1, p2, p3, utm]
    if not simple_np.all():
        rest = uris.filter(pc.invert(simple)).to_pylist()
        info = [L.split_path(u) for u in rest]
        utm_rest = []
        for u in rest:
            m = L.RE_UTM_SOURCE.search(u)
            utm_rest.append(m.group(2) if m else None)
        rest_cols = [[x[k] for x in info] for k in range(4)] + [utm_rest]
        take = _unpermute(np.concatenate([np.flatnonzero(simple_np),
                                          np.flatnonzero(~simple_np)]))
        cols = [pa.concat_arrays([c, pa.array(r, type=pa.string())]).take(take)
                for c, r in zip(cols, rest_cols)]
        mal = np.concatenate(
            [mal, np.array([x.malicious for x in info], dtype=np.int8)]
        )[take.to_numpy()]
    path, p1, p2, p3, utm = cols
    return path, p1, p2, p3, mal, utm


_FIELD_NAMES = ("client_ip", "remote_logname", "remote_user", "ts", "method",
                "uri", "protocol", "status", "bytes_sent", "referer", "ua",
                "domain")


def _extract_fields(lines: pa.Array, fmt: str) -> tuple[pa.Array, dict]:
    """Field extraction with a structural fast path.

    ``parse_ok`` is ALWAYS the anchored-regex match (exact reference
    semantics). Field values for matching rows are extracted by quote/
    space splitting — ~10x faster than RE2 capture groups — but only for
    rows whose split structure is unambiguous (expected quote-part and
    token counts, literal separators in place); any structurally odd row
    (e.g. a quote inside the \\S+ URI, a spaced timestamp) falls back to
    ``pc.extract_regex``, so fast and slow paths are value-identical.

    Returns (ok_mask, {field: full-length string array, "" on non-match}).
    """
    pattern = L.FORMAT_PATTERNS[fmt]
    n = len(lines)
    ok = pc.match_substring_regex(lines, pattern)
    ok_np = ok.to_numpy(zero_copy_only=False)
    good_pos = np.flatnonzero(ok_np)
    glines = lines.filter(ok) if not ok_np.all() else lines
    ng = len(glines)

    from .metrics import const_str

    fields: dict[str, object] = {}
    if ng == 0:
        empty_all = const_str(n, "")
        return ok, {name: empty_all for name in _FIELD_NAMES}

    is_clf = fmt == L.FORMAT_APACHE_COMMON
    is_vhost = fmt == L.FORMAT_APACHE_VHOST_COMBINED
    is_nginx = fmt in (L.FORMAT_NGINX_COMBINED, L.FORMAT_NGINX_CUSTOM)
    has_tail = fmt == L.FORMAT_NGINX_CUSTOM
    exp_q = 3 if is_clf else 7
    exp_p = 7 if is_vhost else 6
    exp_m = 3 if is_clf else 4

    # stage A: quote-structure filter
    qparts = pc.split_pattern(glines, '"')
    qlen = pc.list_value_length(qparts).to_numpy(zero_copy_only=False)
    mask_a = qlen == exp_q
    pos_a = good_pos[np.flatnonzero(mask_a)]
    qp_a = qparts.filter(pa.array(mask_a))
    # stage B: token-count filters on the sub-splits
    prefix = pc.list_element(qp_a, 0)
    request = pc.list_element(qp_a, 1)
    mid = pc.list_element(qp_a, 2)
    pp = pc.split_pattern(prefix, " ")
    rp = pc.split_pattern(request, " ")
    mp = pc.split_pattern(mid, " ")
    plen = pc.list_value_length(pp).to_numpy(zero_copy_only=False)
    rlen = pc.list_value_length(rp).to_numpy(zero_copy_only=False)
    mlen = pc.list_value_length(mp).to_numpy(zero_copy_only=False)
    mask_b = (plen == exp_p) & (rlen == 3) & (mlen == exp_m)
    b = pa.array(mask_b)
    pos_b = pos_a[np.flatnonzero(mask_b)]
    qp_b, pp_b = qp_a.filter(b), pp.filter(b)
    rp_b, mp_b = rp.filter(b), mp.filter(b)
    # stage C: literal-separator / alignment value checks
    ts_a = pc.list_element(pp_b, exp_p - 3)   # "[dd/Mon/yyyy:HH:MM:SS"
    ts_b = pc.list_element(pp_b, exp_p - 2)   # "+zzzz]"
    checks = [
        pc.equal(pc.list_element(pp_b, exp_p - 1), ""),  # trailing space
        pc.starts_with(ts_a, "["),
        pc.ends_with(ts_b, "]"),
        pc.equal(pc.list_element(mp_b, 0), ""),
    ]
    if is_nginx:
        checks.append(pc.equal(pc.list_element(pp_b, 1), "-"))
    if not is_clf:
        checks.append(pc.equal(pc.list_element(qp_b, 4), " "))
        checks.append(pc.equal(pc.list_element(mp_b, 3), ""))
        if not has_tail:
            checks.append(pc.equal(pc.list_element(qp_b, 6), ""))
    mask_c = checks[0]
    for c in checks[1:]:
        mask_c = pc.and_(mask_c, c)
    c_np = mask_c.to_numpy(zero_copy_only=False)
    pos_fast = pos_b[np.flatnonzero(c_np)]
    cmask = pa.array(c_np)
    qp_f, pp_f = qp_b.filter(cmask), pp_b.filter(cmask)
    rp_f, mp_f = rp_b.filter(cmask), mp_b.filter(cmask)

    # fast-path field values
    p_base = 1 if is_vhost else 0
    fast: dict[str, pa.Array] = {
        "client_ip": pc.list_element(pp_f, p_base + 0),
        "remote_logname": (
            const_str(len(pos_fast), "") if is_nginx
            else pc.list_element(pp_f, p_base + 1)
        ),
        "remote_user": pc.list_element(pp_f, p_base + 2),
        "ts": pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(pc.list_element(pp_f, exp_p - 3), 1),
            pc.utf8_slice_codeunits(pc.list_element(pp_f, exp_p - 2), 0, -1),
            " ",
        ),
        "method": pc.list_element(rp_f, 0),
        "uri": pc.list_element(rp_f, 1),
        "protocol": pc.list_element(rp_f, 2),
        "status": pc.list_element(mp_f, 1),
        "bytes_sent": pc.list_element(mp_f, 2),
        "referer": (const_str(len(pos_fast), "") if is_clf
                    else pc.list_element(qp_f, 3)),
        "ua": (const_str(len(pos_fast), "") if is_clf
               else pc.list_element(qp_f, 5)),
        "domain": (pc.list_element(pp_f, 0) if is_vhost
                   else const_str(len(pos_fast), "")),
    }

    # slow path: exact regex extraction for structurally ambiguous rows
    fast_set = np.zeros(n, dtype=bool)
    fast_set[pos_fast] = True
    slow_mask_np = ok_np & ~fast_set
    pos_slow = np.flatnonzero(slow_mask_np)
    if len(pos_slow):
        slines = lines.filter(pa.array(slow_mask_np))
        ext = pc.extract_regex(slines, pattern)
        empty_s = const_str(len(pos_slow), "")
        slow = {
            name: (pc.fill_null(pc.struct_field(ext, name), "")
                   if f"?P<{name}>" in pattern else empty_s)
            for name in _FIELD_NAMES
        }
    else:
        slow = {name: const_str(0, "") for name in _FIELD_NAMES}

    # scatter fast + slow + failed("") back to original row order
    pos_bad = np.flatnonzero(~ok_np)
    take_idx = _unpermute(np.concatenate([pos_fast, pos_slow, pos_bad]))
    n_bad = len(pos_bad)
    for name in _FIELD_NAMES:
        merged = pa.concat_arrays([
            fast[name].combine_chunks() if isinstance(fast[name], pa.ChunkedArray) else fast[name],
            slow[name].combine_chunks() if isinstance(slow[name], pa.ChunkedArray) else slow[name],
            const_str(n_bad, ""),
        ])
        fields[name] = merged.take(take_idx)
    return ok, fields


def _extract_by_format(lines: pa.Array,
                       fmt_codes: np.ndarray) -> tuple[np.ndarray, dict]:
    """:func:`_extract_fields` once per format present, on that format's
    lines, with ``ok`` and the fields scattered back to input row order."""
    present = np.unique(fmt_codes)
    if len(present) == 1:
        ok, fields = _extract_fields(lines, L.FORMATS[present[0]])
        return ok.to_numpy(zero_copy_only=False), fields
    pos = [np.flatnonzero(fmt_codes == fi) for fi in present]
    parts = [_extract_fields(lines.take(pa.array(p)), L.FORMATS[fi])
             for p, fi in zip(pos, present)]
    take = _unpermute(np.concatenate(pos))
    ok_np = np.concatenate(
        [ok.to_numpy(zero_copy_only=False) for ok, _ in parts]
    )[take.to_numpy()]
    fields = {name: pa.concat_arrays([f[name] for _, f in parts]).take(take)
              for name in _FIELD_NAMES}
    return ok_np, fields


def _dict_col(indices: np.ndarray, values: list) -> pa.Array:
    """Per-row string column from per-unique ``values``: a vectorized
    Arrow take, never a per-row Python loop."""
    return pa.DictionaryArray.from_arrays(
        pa.array(indices, type=pa.int32()),
        pa.array(values, type=pa.string()),
    ).cast(pa.string())


# formats whose lines carry referer and user-agent, by format code
_HAS_UA = np.array([f in L.FORMATS_WITH_UA for f in L.FORMATS])


class ParseEnrich:
    """Parse+enrich stage. Usable as a task-pool function target (via
    :func:`make_parse_fn`) or an actor-pool callable class; both share the
    worker-process-level referer and user-agent caches.

    Per batch, field extraction runs once per log format present, on that
    format's lines; the enrichment (bytes, timestamp, URI, referer, UA,
    window) then runs once over the whole batch. Output rows keep the
    input order."""

    def __init__(self, job: JobConfig | "ray.ObjectRef") -> None:  # noqa: F821
        try:  # accept a ray.put handle (broadcast once, read per actor)
            import ray

            if isinstance(job, ray.ObjectRef):
                job = ray.get(job)
        except (ImportError, TypeError):  # pure-local testing without ray
            pass
        self.job: JobConfig = job
        self._detected: dict[str, str | None] = {}  # auto-detect cache
        self._fmt_of: dict[str, str] = {}
        self._wm_of: dict[str, int] = {}
        self._skip_of: dict[str, str | None] = {}
        for name, cfg in job.sources.items():
            self._fmt_of[name] = cfg.log_format
            self._wm_of[name] = cfg.time_window_minutes
            self._skip_of[name] = cfg.skip_line_regex
        self._default_fmt = job.default.log_format
        self._default_wm = job.default.time_window_minutes
        self._default_skip = job.default.skip_line_regex
        self._any_skip = bool(
            self._default_skip or any(v for v in self._skip_of.values())
        )
        self._caches = _CACHES

    def _ref_host(self, referer: str) -> str:
        return _ref_host(referer, self._caches.ref)

    def _ua_info(self, ua: str) -> tuple:
        return _ua_info(ua, self._caches.ua)

    # ---- batch body --------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return ENRICHED_SCHEMA.empty_table()
        lines = decode_tokens(batch.column("tokens"))
        if self._any_skip:
            # SkipIfLineMatchesRegex (F6): the reference stores but never
            # implements this config field (main.go:1021, conf/README.md);
            # we implement it as a pre-parse drop, per source.
            keep = np.ones(batch.num_rows, dtype=bool)
            src_np = batch.column("source").to_numpy(zero_copy_only=False)
            for src in set(src_np.tolist()):
                rx = self._skip_of.get(src, self._default_skip)
                if not rx:
                    continue
                rows = src_np == src
                hits = pc.match_substring_regex(
                    lines.filter(pa.array(rows)), rx
                ).to_numpy(zero_copy_only=False)
                keep[np.flatnonzero(rows)[hits]] = False
            if not keep.all():
                mask = pa.array(keep)
                batch = batch.filter(mask)
                lines = lines.filter(mask)
                if batch.num_rows == 0:
                    return ENRICHED_SCHEMA.empty_table()
        sources = batch.column("source")
        # format per row via the (small) source dictionary
        src_enc = pc.dictionary_encode(sources.combine_chunks() if isinstance(sources, pa.ChunkedArray) else sources)
        src_uniques = src_enc.dictionary.to_pylist()

        def fmt_for(src: str, src_idx: int) -> int:
            fmt = self._fmt_of.get(src, self._default_fmt)
            if fmt != L.FORMAT_AUTO:
                return L.FORMATS.index(fmt)
            # auto-detect (S-auto, main.go:728-748): sniff this source's
            # lines in order until one matches; lock per (worker, source).
            # Single-format sources converge to the same answer in every
            # worker (non-matching lines match NO format); truly
            # mixed-format sources are outside the reference's contract.
            det = self._detected.get(src)
            if det is None:
                # scan this source's lines in SLICES (never materialize
                # the whole column as a Python list); early-exit on the
                # first detecting line, like the reference's per-line loop
                cand = lines.filter(pc.equal(src_enc.indices, src_idx))
                for start in range(0, len(cand), 64):
                    for line in cand.slice(start, 64).to_pylist():
                        det = L.detect_format(line)
                        if det is not None:
                            self._detected[src] = det
                            break
                    if det is not None:
                        break
            # undetected: parse as format 0 — every row fails its anchored
            # regex, yielding parse_error rows (the reference likewise
            # counts lines as errors until detection succeeds)
            return L.FORMATS.index(det) if det else 0

        fmt_codes = np.array(
            [fmt_for(s, i) for i, s in enumerate(src_uniques)],
            dtype=np.int8,
        )[src_enc.indices.to_numpy(zero_copy_only=False)]
        wm_uniques = np.array(
            [self._wm_of.get(s, self._default_wm) for s in src_uniques], dtype=np.int64
        )
        window_minutes = wm_uniques[src_enc.indices.to_numpy(zero_copy_only=False)]

        ok_np, fields = _extract_by_format(lines, fmt_codes)
        return self._enrich(batch, ok_np, fields, _HAS_UA[fmt_codes],
                            window_minutes)

    def _enrich(self, batch: pa.Table, ok_np: np.ndarray, fields: dict,
                has_ua: np.ndarray, window_minutes: np.ndarray) -> pa.Table:
        n = batch.num_rows
        client_ip = fields["client_ip"]
        remote_logname = fields["remote_logname"]
        remote_user = fields["remote_user"]
        method = fields["method"]
        protocol = fields["protocol"]
        status = fields["status"]
        domain = fields["domain"]
        # digit runs beyond int64 behave like Go's dropped Atoi overflow
        # error: ParseInt returns the RANGE-CLAMPED MaxInt64 alongside
        # ErrRange and httpservers.go:175-176 ignores the error, so the
        # clamped max is stored (the \d+ capture guarantees all-digit
        # strings, so a length/lexicographic check decides overflow)
        bs = fields["bytes_sent"]
        # strip leading zeros first (Go's Atoi parses "000...0123" as 123;
        # only true >int64 magnitudes overflow), mapping all-zeros -> "0";
        # "" also maps to "0", matching Atoi("")'s error->0 result
        bs_trim = pc.utf8_ltrim(bs, "0")
        bs_norm = pc.if_else(pc.equal(bs_trim, ""), "0", bs_trim)
        bs_len = pc.utf8_length(bs_norm)
        fits = pc.or_(
            pc.less(bs_len, 19),
            pc.and_(pc.equal(bs_len, 19),
                    pc.less_equal(bs_norm, "9223372036854775807")),
        )
        bytes_sent = pc.fill_null(
            pc.cast(pc.if_else(fits, bs_norm, "9223372036854775807"),
                    pa.int64(), safe=False),
            0,
        )

        # ---- timestamp: local clock fields + numeric offset ----------------
        tsx = pc.extract_regex(fields["ts"], _TS_PIECES)
        local_dt = pc.strptime(
            pc.struct_field(tsx, "dt"), format="%d/%b/%Y:%H:%M:%S", unit="s",
            error_is_null=True,
        )
        zh = pc.cast(pc.struct_field(tsx, "zh"), pa.int32(), safe=False)
        zm = pc.cast(pc.struct_field(tsx, "zm"), pa.int32(), safe=False)
        neg = pc.equal(pc.struct_field(tsx, "sign"), "-")
        off = pc.add(pc.multiply(zh, 3600), pc.multiply(zm, 60))
        off = pc.if_else(neg, pc.negate_checked(off), off)
        off = pc.fill_null(off, 0)
        # numeric zones at/beyond ±24h: Python's timezone() cannot
        # represent them, so engine AND oracle treat the timestamp as
        # unparseable (zero time) — documented divergence from Go, which
        # range-checks nothing on numeric zones
        sane = pc.less(pc.abs_checked(off), 86400)
        local_dt = pc.if_else(sane, local_dt,
                              pa.nulls(n, pa.timestamp("s")))
        off = pc.if_else(sane, off, pa.scalar(0, pa.int32()))
        ts_utc = pc.subtract(
            local_dt, pc.cast(pc.cast(off, pa.int64()), pa.duration("s"))
        )

        # time window from the LOCAL clock fields (metricgenerator.go:131-158)
        yy = pc.fill_null(pc.year(local_dt), 1).to_numpy(zero_copy_only=False)
        mo = pc.fill_null(pc.month(local_dt), 1).to_numpy(zero_copy_only=False)
        dd = pc.fill_null(pc.day(local_dt), 1).to_numpy(zero_copy_only=False)
        hh = pc.fill_null(pc.hour(local_dt), 0).to_numpy(zero_copy_only=False)
        mi = pc.fill_null(pc.minute(local_dt), 0).to_numpy(zero_copy_only=False)
        div = np.where(np.isin(window_minutes, (1, 5, 15, 30, 60)), window_minutes, 10)
        tw = (
            yy.astype(np.int64) * 100_000_000
            + mo.astype(np.int64) * 1_000_000
            + dd.astype(np.int64) * 10_000
            + hh.astype(np.int64) * 100
            + (mi - mi % div).astype(np.int64)
        )
        if not ok_np.all():
            # unparsed rows carry the Go-zero-time window marker
            tw[~ok_np] = L.GO_ZERO_TIME_WINDOW

        # ---- URI -> paths + malicious + utm (vectorized, per unique) -------
        uri_enc = pc.dictionary_encode(fields["uri"])
        uidx = uri_enc.indices
        path_u, p1_u, p2_u, p3_u, mal_u, utm_u = _classify_uris(uri_enc.dictionary)
        path_c, p1_c, p2_c, p3_c, utm = (
            c.take(uidx) for c in (path_u, p1_u, p2_u, p3_u, utm_u)
        )
        uidx_np = uidx.to_numpy(zero_copy_only=False)
        malicious = mal_u[uidx_np]
        robots = pc.equal(p1_u, "/robots.txt").to_numpy(zero_copy_only=False)[uidx_np]

        # ---- referer + UA (per unique; "" on formats that capture none) ----
        # a utm_source parameter in the URI overrides the referer header's
        # host (httpservers.go:79-93)
        ref_enc = pc.dictionary_encode(fields["referer"])
        host_u = pa.array(
            [self._ref_host(r) for r in ref_enc.dictionary.to_pylist()],
            type=pa.string(),
        )
        referer_c = pc.coalesce(utm, host_u.take(ref_enc.indices))
        if not has_ua.all():
            referer_c = pc.if_else(pa.array(has_ua), referer_c, "")

        ua_enc = pc.dictionary_encode(fields["ua"])
        aidx = ua_enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ua_uniques = ua_enc.dictionary.to_pylist()
        ua_fullname_c = ua_enc.dictionary.take(ua_enc.indices)

        # UA classification + robots.txt override (httpservers.go:63-77),
        # per distinct (ua, robots) pair
        code = aidx * 2 + robots
        code_u, code_inv = np.unique(code, return_inverse=True)
        os_v, fam_v, dev_v, hum_v, int_v = [], [], [], [], []
        for c in code_u:
            ua_os, ua_fam, ua_dev, ua_hum, ua_int = self._ua_info(
                ua_uniques[int(c // 2)]
            )
            if c % 2:  # robots.txt requester
                ua_hum, ua_dev = "NonHuman", "Script"
                if ua_fam not in _BOTLIKE_FAMILIES:
                    ua_fam = "OtherBot"
            os_v.append(ua_os)
            fam_v.append(ua_fam)
            dev_v.append(ua_dev)
            hum_v.append(ua_hum)
            int_v.append(ua_int)
        code_inv32 = code_inv.astype(np.int32)
        ua_os_c = _dict_col(code_inv32, os_v)
        ua_family_c = _dict_col(code_inv32, fam_v)
        ua_device_c = _dict_col(code_inv32, dev_v)
        ua_human_c = _dict_col(code_inv32, hum_v)
        ua_intent_c = _dict_col(code_inv32, int_v)

        cols = {
            "doc_id": batch.column("doc_id"),
            "tokens": batch.column("tokens"),
            "n_tok": batch.column("n_tok"),
            "source": batch.column("source"),
            "parse_ok": pa.array(ok_np, type=pa.bool_()),
            "domain": domain,
            "client_ip": client_ip,
            "remote_logname": remote_logname,
            "remote_user": remote_user,
            "ts": ts_utc,
            "ts_offset_sec": off,
            "method": method,
            "path": path_c,
            "path1": p1_c,
            "path2": p2_c,
            "path3": p3_c,
            "protocol": protocol,
            "status": status,
            "bytes_sent": bytes_sent,
            "referer": referer_c,
            "ua_fullname": ua_fullname_c,
            "ua_os": ua_os_c,
            "ua_family": ua_family_c,
            "ua_device_type": ua_device_c,
            "ua_human": ua_human_c,
            "ua_intent": ua_intent_c,
            "malicious": pa.array(malicious, type=pa.int8()),
            "time_window": pa.array(tw, type=pa.int64()),
        }
        arrays = []
        for name, typ in ENRICHED_FIELDS:
            col = cols[name]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if col.type != typ:
                col = col.cast(typ)
            arrays.append(col)
        return pa.Table.from_arrays(arrays, schema=ENRICHED_SCHEMA)


# task-pool entry: one cached ParseEnrich per (worker process, job content)
_FN_CACHE: dict[str, ParseEnrich] = {}


def _job_fingerprint(job: JobConfig) -> str:
    """Content hash of the job config — the worker-side cache key. Keyed
    by CONTENT, not ``id(job)``: CPython id reuse after GC could hand a
    long-lived worker a stale ParseEnrich built from a previous config."""
    import hashlib

    from dataclasses import asdict

    blob = repr(sorted(asdict(job.default).items())) + repr(
        sorted((k, sorted(asdict(v).items())) for k, v in job.sources.items())
    )
    return hashlib.sha1(blob.encode()).hexdigest()


def make_parse_fn(job: JobConfig):
    """Build a plain-function map_batches target for ``job``.

    Task pools reuse Ray's long-lived worker processes, so the module
    caches (and the memoized ParseEnrich) persist across batches and
    queries without actor-pool startup cost. The job config rides along
    in the (tiny) serialized closure.

    The cache key is the config CONTENT hash (stale-config safety) PLUS
    a per-call nonce: ParseEnrich carries run-scoped mutable state (the
    auto-detect cache), which must not leak across different
    datasets/runs that happen to share a config — the reference binds
    a detected parser per file per RUN (main.go parserFunction). The
    expensive per-unique caches are module-level and persist regardless."""
    import uuid

    key = f"{_job_fingerprint(job)}-{uuid.uuid4().hex}"

    def parse_enrich(batch: pa.Table) -> pa.Table:
        pe = _FN_CACHE.get(key)
        if pe is None:
            while len(_FN_CACHE) >= 4:
                # bounded eviction (oldest first) instead of clear-all:
                # concurrent pipelines on one worker must not thrash each
                # other's ParseEnrich (and its run-scoped detect cache)
                _FN_CACHE.pop(next(iter(_FN_CACHE)))
            pe = _FN_CACHE.setdefault(key, ParseEnrich(job))
        return pe(batch)

    return parse_enrich
