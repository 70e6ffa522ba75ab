"""Driver-contract registry for the training-data operators.

Oracle styles per query (see queries.py for the taxonomy):
- independent SQL over the pre-registered testdata views — used wherever
  the semantics are SQL-expressible, including the brute-force mirrors
  of the sketch operators (exact Jaccard for MinHash-LSH pairs +
  transitive-closure clusters, md5-vote simhash + all-pairs Hamming,
  the Karp-Rabin rolling fingerprint, exact top-k for the LSH ANN);
- every data query is SQL-gated, including the real PPM decode
  (multimodal_features: closed-form pixel sums); only the log-side CMS
  sketch remains rows-only (approximate by nature, accuracy gated in
  tests/test_sketch.py).
"""

from __future__ import annotations

from ..functions.text import _FP_BASE, _FP_WINDOW, LANG_STOPWORDS
from . import (
    dp_dedup, dp_emb, dp_multimodal, dp_rel_events, dp_retrieval, dp_text,
)


def _sql_list(words) -> str:
    return ", ".join(f"'{w}'" for w in sorted(words))


# deterministic content-hash sampling: same md5-first-8-bytes >> 1
# arithmetic as functions/dedup.add_text_hash
_H63 = "(('0x' || substr(md5(text || '{salt}'), 1, 16))::UBIGINT >> 1)"

SQL_DOC_SAMPLE_HASH = f"""
SELECT doc_id, text FROM documents
WHERE {_H63.format(salt='s1')} < {int(0.1 * (1 << 63))}
"""

# Mixture-epoch mirror: same suffix-mod-4 weight class, same md5 63-bit
# fractional-epoch draw against exact power-of-two integer thresholds.
SQL_DOC_MIX_EPOCHS = f"""
WITH m AS (
  SELECT doc_id, source,
    COALESCE(TRY_CAST(regexp_extract(source, '([0-9]+)', 1) AS BIGINT),
             0) % 4 AS mk,
    {_H63.format(salt='mix')} AS h
  FROM documents
), r AS (
  SELECT doc_id, source,
    CASE mk WHEN 2 THEN 2 WHEN 3 THEN 3 ELSE 1 END
      + CASE WHEN h < CASE mk WHEN 1 THEN {3 << 61} WHEN 2 THEN {1 << 62}
                              WHEN 3 THEN {1 << 61} ELSE 0 END
             THEN 1 ELSE 0 END AS n_epochs
  FROM m
)
SELECT doc_id, source, unnest(range(n_epochs)) AS epoch FROM r
"""

# exact-k reservoir mirror: same per-ROW md5(doc_id ':' text) 63-bit
# key, same (key, doc_id) total order — the LIMIT is the reservoir
SQL_DOC_SAMPLE_RESERVOIR = """
SELECT doc_id,
  CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':' || text), 1, 16))
       ::UBIGINT >> 1 AS BIGINT) AS sample_key
FROM documents
ORDER BY sample_key, doc_id
LIMIT 100
"""

# Weighted-sample mirror: same per-row 63-bit md5 key, u in (0,1] from
# identical double arithmetic ((u63+1) * 2^-63), exponential clock
# -ln(u)/w with w = the whitespace token count; (ROUND-6, id) total
# order. Only libm's last-ulp ln noise separates the sides — far
# inside the rounding.
SQL_DOC_SAMPLE_WEIGHTED = """
WITH t AS (
  SELECT doc_id,
    CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':' || text), 1, 16))
         ::UBIGINT >> 1 AS BIGINT) AS u63,
    len(string_split(text, ' ')) AS w
  FROM documents
)
SELECT doc_id,
       ROUND(-ln((CAST(u63 AS DOUBLE) + 1) * POWER(2.0, -63)) / w, 6) AS wkey
FROM t ORDER BY wkey, doc_id
LIMIT 100
"""

# Global-shuffle mirror: position = rank under (md5(doc_id) >> 1,
# doc_id) — the engine's range-partition + prefix-sum rank must equal
# one global ROW_NUMBER.
SQL_DOC_SHUFFLE_ORDER = """
SELECT doc_id,
  CAST(ROW_NUMBER() OVER (ORDER BY
    CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
         ::UBIGINT >> 1 AS BIGINT), doc_id) - 1 AS BIGINT) AS shuffle_pos
FROM documents
"""

# Balanced per-label reservoir mirror: same md5(vec_id)>>1 key, same
# (key, vec_id) tie order, ROW_NUMBER per label.
SQL_EMB_SAMPLE_BALANCED = """
WITH keyed AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
    CAST(('0x' || substr(md5(CAST(vec_id AS VARCHAR)), 1, 16))
         ::UBIGINT >> 1 AS BIGINT) AS sample_key
  FROM embeddings
)
SELECT vec_id, label, sample_key FROM (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY label ORDER BY sample_key, vec_id) AS rn
  FROM keyed
) WHERE rn <= 10
"""

# Length-histogram mirror: same integer bucket arithmetic, string_split
# == pc.split_pattern (both keep empty tokens).
SQL_DOC_LENGTH_HISTOGRAM = """
SELECT CAST(len(string_split(text, ' ')) // 10 AS BIGINT) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS sum_tokens
FROM documents GROUP BY 1 ORDER BY 1
"""

# Split-assignment mirror: same md5 hash ranges, same salt.
SQL_DOC_SPLIT_ASSIGN = f"""
SELECT doc_id,
  CASE WHEN {_H63.format(salt='sp1')} < {int(0.05 * (1 << 63))} THEN 'val'
       WHEN {_H63.format(salt='sp1')} < {int(0.10 * (1 << 63))} THEN 'test'
       ELSE 'train' END AS split
FROM documents
"""

SQL_DOC_SAMPLE_STRATIFIED = f"""
SELECT doc_id, lang FROM documents
WHERE {_H63.format(salt='s2')} < CASE lang
  WHEN 'en' THEN {int(0.5 * (1 << 63))}
  WHEN 'de' THEN {int(0.2 * (1 << 63))}
  ELSE {int(0.05 * (1 << 63))} END
"""

SQL_DOC_DECONTAMINATE = """
SELECT doc_id,
  CAST(CASE WHEN contains(text, 'table value part hash')
         OR contains(text, 'spark order data column')
         OR contains(text, 'vector table fast batch') THEN 1 ELSE 0 END AS BIGINT)
    AS contaminated,
  CAST(CAST(contains(text, 'table value part hash') AS INTEGER)
     + CAST(contains(text, 'spark order data column') AS INTEGER)
     + CAST(contains(text, 'vector table fast batch') AS INTEGER) AS BIGINT)
    AS n_hits
FROM documents
"""

# n-gram decontamination mirror: same 3-word-grams (string_split keeps
# empty tokens, matching the engine's split_pattern), counted per gram
# POSITION; blocklist grams inlined as literals (tiny by contract)
def _decontam_grams(n: int = 3) -> list[str]:
    from .dp_dedup import _DECONTAM_DEFAULT
    out = set()
    for p in _DECONTAM_DEFAULT:
        ws = p.split(" ")
        out.update(" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1))
    return sorted(out)


SQL_DOC_DECONTAMINATE_NGRAM = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), g AS (
  SELECT doc_id, unnest(
    CASE WHEN len(ws) < 3 THEN []
         ELSE list_transform(range(1, len(ws) - 1),
                             i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
    END) AS gram
  FROM w
), h AS (
  SELECT doc_id, COUNT(*) AS c FROM g
  WHERE gram IN ({_sql_list(_decontam_grams())})
  GROUP BY 1
)
SELECT d.doc_id,
       CAST(CASE WHEN COALESCE(h.c, 0) > 0 THEN 1 ELSE 0 END AS BIGINT)
         AS contaminated,
       CAST(COALESCE(h.c, 0) AS BIGINT) AS n_hits
FROM documents d LEFT JOIN h ON d.doc_id = h.doc_id
"""

# Substring-dedup mirror: same k-token whitespace windows (string_split
# keeps empty tokens, list slicing is 1-based end-inclusive), a window
# is duplicated iff its verbatim gram occurs in >= 2 distinct docs;
# per-doc counts are per POSITION. The engine hashes windows (64-bit
# rolling polynomial) instead of materializing gram strings; the mirror
# compares the strings themselves, so any hashing error surfaces.
_SUBSTR_K = 10
SQL_DOC_DEDUP_SUBSTRING = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), g AS (
  SELECT doc_id, unnest(list_transform(range(1, len(ws) - {_SUBSTR_K} + 2),
    i -> array_to_string(ws[i:i+{_SUBSTR_K - 1}], ' '))) AS gram
  FROM w WHERE len(ws) >= {_SUBSTR_K}
), d AS (
  SELECT gram FROM (
    SELECT gram, COUNT(DISTINCT doc_id) AS nd FROM g GROUP BY 1
  ) WHERE nd >= 2
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_dup_windows
FROM g WHERE gram IN (SELECT gram FROM d)
GROUP BY doc_id
"""

SQL_DOC_DEDUP_EXACT = """
SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_dupes
FROM documents GROUP BY text
"""

SQL_DOC_TOKEN_STATS = f"""
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
  CAST(len(regexp_extract_all(text, '[.,;:!?]')) AS BIGINT) AS n_punct,
  CAST(len(regexp_extract_all(lower(text), '[a-z]+')) AS BIGINT) AS n_alpha_tokens,
  CAST(len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
       x -> x IN ({_sql_list(LANG_STOPWORDS["en"])}))) AS BIGINT) AS n_stop_en,
  CAST(len(regexp_extract_all(text,
       '''(?:s|d|m|t|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\\s]+|\\s+'))
       AS BIGINT) AS n_bpe_tokens
FROM documents
"""

# Gopher quality-rules mirror (Rae et al. 2021 App. A1.1): the SAME
# space-split words / newline-split lines, every stat an integer and
# every gate integer arithmetic (mean word length in [3,10] as
# 3n <= sum <= 10n etc.), so the compare is hash-exact with no float
# rounding. Keep thresholds in lockstep with functions/text.gopher_stats.
SQL_DOC_QUALITY_GOPHER = """
WITH w AS (
  SELECT doc_id, text,
         string_split(text, ' ') AS ws,
         string_split(text, chr(10)) AS ls
  FROM documents
), s AS (
  SELECT doc_id,
    len(ws) AS n_words,
    CAST(COALESCE(list_sum(list_transform(ws, x -> length(x))), 0)
         AS BIGINT) AS sum_word_len,
    len(list_filter(ws, x -> regexp_matches(x, '[A-Za-z]')))
      AS n_alpha_words,
    len(list_filter(ws, x -> lower(x) IN
        ('and', 'be', 'have', 'of', 'that', 'the', 'to', 'with')))
      AS n_stop_gopher,
    len(regexp_extract_all(text, '#'))
      + len(regexp_extract_all(text, '\\.\\.\\.')) AS n_sym,
    len(ls) AS n_lines,
    len(list_filter(ls, x -> starts_with(x, '-') OR starts_with(x, '•')))
      AS n_bullet_lines,
    len(list_filter(ls, x -> ends_with(x, '...') OR ends_with(x, '…')))
      AS n_ellipsis_lines
  FROM w
)
SELECT doc_id,
  CAST(n_words AS BIGINT) AS n_words,
  sum_word_len,
  CAST(n_alpha_words AS BIGINT) AS n_alpha_words,
  CAST(n_stop_gopher AS BIGINT) AS n_stop_gopher,
  CAST(n_sym AS BIGINT) AS n_sym,
  CAST(n_lines AS BIGINT) AS n_lines,
  CAST(n_bullet_lines AS BIGINT) AS n_bullet_lines,
  CAST(n_ellipsis_lines AS BIGINT) AS n_ellipsis_lines,
  CAST(CASE WHEN n_words BETWEEN 50 AND 100000
         AND 3 * n_words <= sum_word_len AND sum_word_len <= 10 * n_words
         AND 10 * n_sym <= n_words
         AND 10 * n_bullet_lines <= 9 * n_lines
         AND 10 * n_ellipsis_lines <= 3 * n_lines
         AND 5 * n_alpha_words >= 4 * n_words
         AND n_stop_gopher >= 2
       THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM s
"""

# C4 mirror: the kept-line predicate is repeated (filter for the count,
# filter+transform for the word sum) because DuckDB lambdas can't bind
# a named intermediate; both copies must stay in lockstep with
# functions/text.c4_stats.
SQL_DOC_QUALITY_C4 = """
WITH aug AS (
  SELECT doc_id,
    text
    || chr(10) || 'This is a plain sentence with id ' || doc_id || '.'
    || CASE WHEN doc_id % 2 = 0 THEN
         chr(10) || 'Another good sentence number ' || doc_id
         || ' right here!'
         || chr(10) || 'Is this a third good line ' || doc_id || '?'
       ELSE '' END
    || CASE WHEN doc_id % 3 = 0 THEN chr(10) || 'short line.'
       ELSE '' END
    || CASE WHEN doc_id % 5 = 0 THEN
         chr(10) || 'Enable javascript to view page ' || doc_id || ' now.'
       ELSE '' END
    || CASE WHEN doc_id % 7 = 0 THEN
         chr(10) || 'lorem ipsum dolor sit amet placeholder text here.'
       ELSE '' END
    || CASE WHEN doc_id % 11 = 0 THEN
         chr(10) || 'function f() { return ' || doc_id || '; }'
       ELSE '' END AS text
  FROM documents
), l AS (
  SELECT doc_id, text, string_split(text, chr(10)) AS ls FROM aug
), s AS (
  SELECT doc_id,
    len(ls) AS n_lines,
    len(list_filter(ls, x ->
        (ends_with(x, '.') OR ends_with(x, '!') OR ends_with(x, '?')
         OR ends_with(x, '"'))
        AND len(string_split(x, ' ')) >= 5
        AND NOT contains(lower(x), 'javascript'))) AS n_kept_lines,
    CAST(COALESCE(list_sum(list_transform(list_filter(ls, x ->
        (ends_with(x, '.') OR ends_with(x, '!') OR ends_with(x, '?')
         OR ends_with(x, '"'))
        AND len(string_split(x, ' ')) >= 5
        AND NOT contains(lower(x), 'javascript')),
        x -> len(string_split(x, ' ')))), 0) AS BIGINT) AS n_kept_words,
    len(list_filter(ls, x -> contains(lower(x), 'javascript')))
      AS n_js_lines,
    CASE WHEN contains(lower(text), 'lorem ipsum') THEN 1 ELSE 0 END
      AS has_lorem,
    CASE WHEN contains(text, '{') THEN 1 ELSE 0 END AS has_brace
  FROM l
)
SELECT doc_id,
  CAST(n_lines AS BIGINT) AS n_lines,
  CAST(n_kept_lines AS BIGINT) AS n_kept_lines,
  n_kept_words,
  CAST(n_js_lines AS BIGINT) AS n_js_lines,
  CAST(has_lorem AS BIGINT) AS has_lorem,
  CAST(has_brace AS BIGINT) AS has_brace,
  CAST(CASE WHEN n_kept_lines >= 3 AND has_lorem = 0 AND has_brace = 0
       THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM s
"""

# Tokenize-to-ids mirror: the vocab is the same (count desc, token asc)
# ranking as doc_vocab_topk, built as a MAP scalar; per-token lookup via
# map extract, OOV -> 0; same string_split semantics (empties kept).
SQL_DOC_TOKENIZE_IDS = """
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), tok AS (
  SELECT unnest(ws) AS t FROM w
), vocab AS (
  SELECT t AS token, ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, t ASC) AS id
  FROM tok GROUP BY t ORDER BY id LIMIT 1000
), m AS (
  SELECT map(list(token ORDER BY id), list(id ORDER BY id)) AS mp FROM vocab
)
SELECT doc_id,
  list_transform(ws, x -> CAST(COALESCE(mp[x][1], 0) AS BIGINT)) AS ids,
  CAST(len(list_filter(ws, x -> mp[x][1] IS NULL)) AS BIGINT) AS n_oov
FROM w, m
"""

SQL_DOC_LANG_ID = f"""
WITH c AS (
  SELECT doc_id,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["de"])}))) AS c_de,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["en"])}))) AS c_en,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["es"])}))) AS c_es,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["fr"])}))) AS c_fr
  FROM documents
)
SELECT doc_id,
  CASE
    WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
    WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
    WHEN c_es >= c_fr THEN 'es'
    ELSE 'fr' END AS pred_lang
FROM c
"""

# Brute-force exact word-3-shingle Jaccard (the independent mirror of the
# MinHash-LSH pair pipeline). The engine hashes shingles with crc32 before
# set operations; set Jaccard is identical as long as no within-doc crc
# collision occurs — verified exact on the test corpora. LSH recall at
# threshold 0.8 with 16 bands x 4 rows misses a qualifying pair with
# p ~ (1-0.8^4)^16 ~ 2e-4; exact equality holds on the fixed testdata.
_SQL_MINHASH_CORE = r"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS words FROM documents
), sh AS (
  SELECT doc_id,
    CASE WHEN len(words) < 3 THEN [array_to_string(words, ' ')]
         ELSE list_transform(range(1, len(words) - 1),
                             i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])
    END AS shingles
  FROM w
), ds AS (
  SELECT DISTINCT doc_id, s FROM (SELECT doc_id, unnest(shingles) AS s FROM sh)
), sizes AS (
  SELECT doc_id, COUNT(*) AS n FROM ds GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS c
  FROM ds a JOIN ds b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), pairs AS (
  SELECT ia AS id_a, ib AS id_b,
         ROUND(c * 1.0 / (sa.n + sb.n - c), 3) AS jaccard
  FROM inter
  JOIN sizes sa ON sa.doc_id = ia
  JOIN sizes sb ON sb.doc_id = ib
  WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.8
)
"""

SQL_DOC_DEDUP_MINHASH = (
    _SQL_MINHASH_CORE + "SELECT id_a, id_b, jaccard FROM pairs"
)

# Doc-level decontamination mirror: the same verified pairs restricted
# to cross-set (train x eval) ones, eval set = doc_id % 7 == 0.
SQL_DOC_DECONTAMINATE_NEARDUP = _SQL_MINHASH_CORE + """
SELECT CASE WHEN id_a % 7 = 0 THEN id_b ELSE id_a END AS train_id,
       CASE WHEN id_a % 7 = 0 THEN id_a ELSE id_b END AS eval_id,
       jaccard
FROM pairs WHERE (id_a % 7 = 0) <> (id_b % 7 = 0)
"""

# Exact character-5-gram Jaccard pairs (doc_dedup_ngram's brute-force
# mirror; the engine computes the same thing via the distributed
# chunk-pair join).
# Containment mirror: the same distinct-5-gram sets as the ngram
# oracle, intersection over the SMALLER set; contained = smaller set,
# size tie -> the larger doc_id (inter's ia < ib makes that ib).
SQL_DOC_DEDUP_CONTAINMENT = r"""
WITH g AS (
  SELECT doc_id,
    CASE WHEN strlen(text) < 5 THEN [text]
         ELSE list_transform(range(1, strlen(text) - 3), i -> substr(text, i, 5))
    END AS grams
  FROM documents
), dg AS (
  SELECT DISTINCT doc_id, s FROM (SELECT doc_id, unnest(grams) AS s FROM g)
), sizes AS (
  SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS c
  FROM dg a JOIN dg b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT CASE WHEN sa.n < sb.n THEN ia
            WHEN sa.n > sb.n THEN ib
            ELSE ib END AS id_contained,
       CASE WHEN sa.n < sb.n THEN ib
            WHEN sa.n > sb.n THEN ia
            ELSE ia END AS id_container,
       FLOOR((c * 2000 + LEAST(sa.n, sb.n))
             / (2.0 * LEAST(sa.n, sb.n))) / 1000 AS containment
FROM inter
JOIN sizes sa ON sa.doc_id = ia
JOIN sizes sb ON sb.doc_id = ib
WHERE c * 1.0 / LEAST(sa.n, sb.n) >= 0.6
"""

SQL_DOC_DEDUP_NGRAM = r"""
WITH g AS (
  SELECT doc_id,
    CASE WHEN strlen(text) < 5 THEN [text]
         ELSE list_transform(range(1, strlen(text) - 3), i -> substr(text, i, 5))
    END AS grams
  FROM documents
), dg AS (
  SELECT DISTINCT doc_id, s FROM (SELECT doc_id, unnest(grams) AS s FROM g)
), sizes AS (
  SELECT doc_id, COUNT(*) AS n FROM dg GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS c
  FROM dg a JOIN dg b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT ia AS id_a, ib AS id_b,
       ROUND(c * 1.0 / (sa.n + sb.n - c), 3) AS jaccard
FROM inter
JOIN sizes sa ON sa.doc_id = ia
JOIN sizes sb ON sb.doc_id = ib
WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.4
"""

# Connected components over the near-dup pairs via transitive closure
# (recursive CTE) with min-id cluster labels — mirrors the engine's
# union-find output exactly.
SQL_DOC_DEDUP_CLUSTERS = (
    _SQL_MINHASH_CORE.replace("WITH w AS", "WITH RECURSIVE w AS", 1)
    + r""",
edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION SELECT id_b, id_a FROM pairs
), reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u WHERE e.v <> r.u
)
SELECT u AS doc_id, LEAST(u, MIN(v)) AS cluster_id FROM reach GROUP BY u
"""
)

# Exact SQL mirror of simhash64: md5-based 64-bit word hashes (first 8
# digest bytes big-endian == first 16 hex chars), +/-1 bit votes over
# distinct words, bit set iff vote > 0; signatures compared all-pairs
# with bit_count(xor()) — exact because the 4x16-bit pigeonhole the
# engine uses guarantees every Hamming<=3 pair is found.
# Deduplicated-corpus mirror: keep every doc except non-representative
# members of the transitive-closure near-dup clusters (same CTE as the
# clusters oracle; representative = component min id).
SQL_DOC_DEDUP_NEAR_KEEP = (
    _SQL_MINHASH_CORE.replace("WITH w AS", "WITH RECURSIVE w AS", 1)
    + r"""
, edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION SELECT id_b, id_a FROM pairs
), reach(u, v) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u WHERE e.v <> r.u
), labels AS (
  SELECT u AS doc_id, LEAST(u, MIN(v)) AS cluster_id FROM reach GROUP BY u
)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT doc_id FROM labels WHERE doc_id <> cluster_id)
"""
)

SQL_DOC_DEDUP_SIMHASH = r"""
WITH words AS (
  SELECT doc_id, unnest(list_distinct(regexp_extract_all(text, '\S+'))) AS w
  FROM documents
), wh AS (
  SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h FROM words
), bits AS (
  SELECT doc_id, b AS bit,
         SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
  FROM wh CROSS JOIN (SELECT unnest(range(64)) AS b)
  GROUP BY doc_id, b
), sig0 AS (
  SELECT doc_id,
    SUM(CASE WHEN acc > 0 THEN
          CASE WHEN bit = 63 THEN -9223372036854775808
               ELSE (1::BIGINT << bit) END
        ELSE 0 END)::BIGINT AS simhash
  FROM bits GROUP BY doc_id
), sig AS (
  SELECT d.doc_id, COALESCE(s.simhash, 0) AS simhash
  FROM documents d LEFT JOIN sig0 s ON d.doc_id = s.doc_id
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""

# Exact mirror of the Bloom incremental dedup
# (dp_rel_events._bloom_positions with m=2^22, k=4): the sketch is
# deterministic integer arithmetic, so even its false positives
# reproduce bit-for-bit. Same md5-first-8-bytes
# >> 1 content hash; the four multiplicative mixes run mod 2^64 in
# HUGEINT (the _FP_POWERS wraparound idiom — UBIGINT multiply would
# overflow-error, not wrap), then >> 17 (// 131072) % 4194304. A
# snapshot (odd-id) doc survives iff ANY of its 4 bit positions is
# unset by the existing (even-id) side.
SQL_DOC_DEDUP_BLOOM = """
WITH h AS (
  SELECT doc_id,
         (('0x' || substr(md5(text), 1, 16))::UBIGINT >> 1)::HUGEINT AS th
  FROM documents
), pos AS (
  SELECT doc_id,
         CAST(((th * m.mix) % 18446744073709551616) // 131072
              % 4194304 AS BIGINT) AS p
  FROM h CROSS JOIN (VALUES (11400714819323198485::HUGEINT),
                            (14029467366897019727::HUGEINT),
                            (1609587929392839161::HUGEINT),
                            (2870177450012600261::HUGEINT)) m(mix)
), epos AS (
  SELECT DISTINCT p FROM pos WHERE doc_id % 2 = 0
)
SELECT CAST(s.doc_id AS BIGINT) AS doc_id
FROM (SELECT pos.doc_id,
             SUM(CASE WHEN e.p IS NULL THEN 1 ELSE 0 END) AS missing
      FROM pos LEFT JOIN epos e ON e.p = pos.p
      WHERE pos.doc_id % 2 = 1
      GROUP BY pos.doc_id) s
WHERE s.missing > 0
"""

# Exact SQL mirror of the Karp-Rabin rolling fingerprint: byte-level
# polynomial hashes with uint64 wraparound (power constants precomputed
# mod 2^64 and inlined), distinct, 8 smallest per doc in UNSIGNED order,
# emitted as signed int64 — one row per (doc, rank).
_FP_POWERS = ", ".join(
    f"{pow(int(_FP_BASE), _FP_WINDOW - 1 - k, 1 << 64)}::HUGEINT"
    for k in range(_FP_WINDOW)
)
# Winnowing mirror (default w = 8): the SAME per-position rolling hash
# as SQL_DOC_FINGERPRINT (no DISTINCT), windows expanded over hash
# positions, selection = ROW_NUMBER under (hash asc, pos desc) = 1 —
# the rightmost-minimum rule — then DISTINCT selected positions.
SQL_DOC_WINNOW = f"""
WITH b AS (
  SELECT doc_id, hex(encode(text)) AS hx,
         GREATEST(octet_length(encode(text)), {_FP_WINDOW}) AS n
  FROM documents
), pos AS (
  SELECT doc_id, hx, n, unnest(range(1, n - {_FP_WINDOW} + 2)) AS i FROM b
), terms AS (
  SELECT doc_id, i, k,
    CASE WHEN (i + k) * 2 <= strlen(hx)
         THEN ('0x' || substr(hx, (i + k - 1) * 2 + 1, 2))::UBIGINT::HUGEINT
         ELSE 0::HUGEINT END
      * ([{_FP_POWERS}])[k + 1] AS term
  FROM pos CROSS JOIN (SELECT unnest(range({_FP_WINDOW})) AS k)
), h AS (
  SELECT doc_id, i, SUM(term) % 18446744073709551616::HUGEINT AS hv
  FROM terms GROUP BY doc_id, i
), mx AS (
  SELECT doc_id, MAX(i) AS m FROM h GROUP BY doc_id
), wins AS (
  SELECT doc_id, unnest(range(1, GREATEST(1, m - 8 + 1) + 1)) AS ws FROM mx
), sel AS (
  SELECT w.doc_id, w.ws, h.i, h.hv,
         ROW_NUMBER() OVER (PARTITION BY w.doc_id, w.ws
                            ORDER BY h.hv ASC, h.i DESC) AS rn
  FROM wins w JOIN h ON h.doc_id = w.doc_id
              AND h.i BETWEEN w.ws AND w.ws + 7
)
SELECT DISTINCT doc_id, CAST(i AS BIGINT) AS pos,
       CASE WHEN hv >= 9223372036854775808::HUGEINT
            THEN (hv - 18446744073709551616::HUGEINT)::BIGINT
            ELSE hv::BIGINT END AS fp_hash
FROM sel WHERE rn = 1
"""

SQL_DOC_FINGERPRINT = f"""
WITH b AS (
  SELECT doc_id, hex(encode(text)) AS hx,
         GREATEST(octet_length(encode(text)), {_FP_WINDOW}) AS n
  FROM documents
), pos AS (
  SELECT doc_id, hx, n, unnest(range(1, n - {_FP_WINDOW} + 2)) AS i FROM b
), terms AS (
  SELECT doc_id, i, k,
    CASE WHEN (i + k) * 2 <= strlen(hx)
         THEN ('0x' || substr(hx, (i + k - 1) * 2 + 1, 2))::UBIGINT::HUGEINT
         ELSE 0::HUGEINT END
      * ([{_FP_POWERS}])[k + 1] AS term
  FROM pos CROSS JOIN (SELECT unnest(range({_FP_WINDOW})) AS k)
), h AS (
  SELECT DISTINCT doc_id, SUM(term) % 18446744073709551616::HUGEINT AS hv
  FROM terms GROUP BY doc_id, i
), ranked AS (
  SELECT doc_id, hv,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY hv) AS rn
  FROM h
)
SELECT doc_id, rn AS fp_rank,
       CASE WHEN hv >= 9223372036854775808::HUGEINT
            THEN (hv - 18446744073709551616::HUGEINT)::BIGINT
            ELSE hv::BIGINT END AS fp_hash
FROM ranked WHERE rn <= 8
"""

# The flagship curation pipeline's brute-force mirror: exact dedup reps
# (min doc_id per distinct TEXT — equivalent to the engine's 8-byte
# content hash absent collisions), stopword-argmax language id, token
# bounds, and the integer-exact stopword-ratio gate (x10000, no float
# rounding drift).
SQL_DOC_CURATION = f"""
WITH reps AS (
  SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text
), c AS (
  SELECT doc_id,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["de"])}))) AS c_de,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["en"])}))) AS c_en,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["es"])}))) AS c_es,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["fr"])}))) AS c_fr,
    CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
    len(regexp_extract_all(lower(text), '[a-z]+')) AS n_alpha
  FROM documents
), lang AS (
  SELECT doc_id, n_tokens, n_alpha, CAST(c_en AS BIGINT) AS n_stop_en,
    CASE
      WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
      WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
      WHEN c_es >= c_fr THEN 'es'
      ELSE 'fr' END AS pred_lang
  FROM c
)
SELECT l.doc_id, l.n_tokens, l.n_stop_en
FROM lang l JOIN reps r ON l.doc_id = r.doc_id
WHERE l.pred_lang = 'en'
  AND l.n_tokens BETWEEN 20 AND 1000
  AND l.n_stop_en * 10000 >= GREATEST(1, l.n_alpha) * 150
"""

# Funnel mirror: the SQL_DOC_CURATION lang/ratio CTEs, counted per
# cumulative stage; the dedup stage is COUNT(DISTINCT text) over
# gate-passers (the engine counts distinct 63-bit md5 hashes — equal
# short of an md5 collision, the same equivalence the pipeline gate
# already rests on).
SQL_DOC_CURATION_REPORT = f"""
WITH c AS (
  SELECT doc_id, text,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["de"])}))) AS c_de,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["en"])}))) AS c_en,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["es"])}))) AS c_es,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({_sql_list(LANG_STOPWORDS["fr"])}))) AS c_fr,
    CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
    len(regexp_extract_all(lower(text), '[a-z]+')) AS n_alpha
  FROM documents
), g AS (
  SELECT doc_id, text, n_tokens,
    CASE
      WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
      WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
      WHEN c_es >= c_fr THEN 'es'
      ELSE 'fr' END = 'en' AS ok_lang,
    n_tokens BETWEEN 20 AND 1000 AS ok_tok,
    CAST(c_en AS BIGINT) * 10000 >= GREATEST(1, n_alpha) * 150 AS ok_ratio
  FROM c
)
SELECT '1_total' AS stage, CAST(COUNT(*) AS BIGINT) AS n_docs FROM g
UNION ALL
SELECT '2_lang', CAST(SUM(CASE WHEN ok_lang THEN 1 ELSE 0 END) AS BIGINT)
FROM g
UNION ALL
SELECT '3_token_range',
       CAST(SUM(CASE WHEN ok_lang AND ok_tok THEN 1 ELSE 0 END) AS BIGINT)
FROM g
UNION ALL
SELECT '4_stop_ratio',
       CAST(SUM(CASE WHEN ok_lang AND ok_tok AND ok_ratio
                THEN 1 ELSE 0 END) AS BIGINT)
FROM g
UNION ALL
SELECT '5_dedup_kept', CAST(COUNT(DISTINCT text) AS BIGINT)
FROM g WHERE ok_lang AND ok_tok AND ok_ratio
"""

SQL_EMB_DEDUP_COSINE = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       ROUND(list_cosine_similarity(a.embedding, b.embedding), 3) AS cos
FROM embeddings a, embeddings b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(a.embedding, b.embedding) > 0.35
"""

SQL_EMB_SIMILARITY_TOPK = """
WITH q AS (
  SELECT embedding AS qe, vec_id AS qid FROM embeddings
  WHERE vec_id = (SELECT MIN(vec_id) FROM embeddings)
)
SELECT e.vec_id,
       ROUND(list_cosine_similarity(e.embedding, q.qe), 3) AS cos
FROM embeddings e, q
WHERE e.vec_id <> q.qid
ORDER BY ROUND(list_cosine_similarity(e.embedding, q.qe), 3) DESC, e.vec_id
LIMIT 10
"""

# Batch-search mirror: same strided 32-query panel as the codebook
# pick, DOUBLE[] cosines, rank on (round3 desc, id asc) — the knn-join
# conventions at Q x k output size.
SQL_EMB_BATCH_SEARCH = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe
  FROM (SELECT vec_id, embedding FROM embeddings
        WHERE vec_id % (SELECT GREATEST(1, COUNT(*) // 32)
                        FROM embeddings) = 0
        ORDER BY vec_id LIMIT 32)
), c AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                      CAST(q.qe AS DOUBLE[])), 3) AS cos
  FROM embeddings e, q WHERE e.vec_id <> q.query_id
)
SELECT query_id, neighbor_id, cos, rnk FROM (
  SELECT *, CAST(ROW_NUMBER() OVER (
    PARTITION BY query_id ORDER BY cos DESC, neighbor_id) AS BIGINT)
    AS rnk
  FROM c
) WHERE rnk <= 10
"""


def sql_emb_ann_recall(n_queries: int = 32, k: int = 10, n_bits: int = 6,
                       n_tables: int = 4, probe_hamming: int = 2,
                       dim: int = 64) -> str:
    """Exact SQL mirror of the LSH recall evaluator. The hyperplanes
    are deterministic seeded constants (similarity.hyperplanes), so the
    oracle inlines them as literals (full %.17g precision: exact f64
    round-trip) and re-derives everything else: sign-of-dot bucket
    bits (normalization is a positive scale, so raw dots carry the
    same signs; sign flips are measure-zero float boundaries — the
    emb_pq_codes idiom), per-table Hamming multiprobe candidacy, the
    exact and candidate-masked top-k under the shared
    (ROUND(cos,3) DESC, id) key, the Q x k intersect, and the integer
    candidate-pair counts. ``dim`` pins the testdata embedding width
    (asserted by the i-join: a width change yields NULL dots and a
    loud mismatch, not silence)."""
    from ..functions import similarity as S

    rows = []
    for t in range(n_tables):
        pl = S.hyperplanes(dim, n_bits, seed=11 + t)
        for b in range(n_bits):
            ws = ", ".join("%.17g" % w for w in pl[b])
            rows.append(f"({t}, {b}, [{ws}])")
    planes_values = ",\n    ".join(rows)
    return f"""
WITH planes AS (
  SELECT tbl, bit, unnest(ws) AS w,
         unnest(range(1, {dim + 1})) AS i
  FROM (VALUES
    {planes_values}) p(tbl, bit, ws)
), q AS (
  SELECT vec_id AS query_id FROM embeddings
  WHERE vec_id % (SELECT GREATEST(1, COUNT(*) // {n_queries})
                  FROM embeddings) = 0
  ORDER BY vec_id LIMIT {n_queries}
), eu AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), code AS (
  SELECT eu.vec_id, p.tbl, p.bit,
         CASE WHEN SUM(eu.x * p.w) > 0 THEN 1 ELSE 0 END AS b
  FROM eu JOIN planes p USING (i)
  GROUP BY eu.vec_id, p.tbl, p.bit
), ham AS (
  SELECT c.vec_id, qc.query_id, c.tbl,
         SUM(CASE WHEN c.b <> qc.b THEN 1 ELSE 0 END) AS hdist
  FROM code c
  JOIN (SELECT q.query_id, k2.tbl, k2.bit, k2.b
        FROM q JOIN code k2 ON k2.vec_id = q.query_id) qc
    ON qc.tbl = c.tbl AND qc.bit = c.bit
  GROUP BY c.vec_id, qc.query_id, c.tbl
), cand AS (
  SELECT vec_id, query_id FROM ham GROUP BY vec_id, query_id
  HAVING MIN(hdist) <= {probe_hamming}
), cs AS (
  SELECT q.query_id, e.vec_id AS neighbor_id,
         ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                      CAST(qe.embedding AS DOUBLE[])),
               3) AS cos
  FROM embeddings e
  CROSS JOIN q
  JOIN embeddings qe ON qe.vec_id = q.query_id
  WHERE e.vec_id <> q.query_id
), exact AS (
  SELECT query_id, neighbor_id FROM (
    SELECT *, ROW_NUMBER() OVER (PARTITION BY query_id
                                 ORDER BY cos DESC, neighbor_id) AS rnk
    FROM cs) WHERE rnk <= {k}
), approx AS (
  SELECT query_id, neighbor_id FROM (
    SELECT c.query_id, c.neighbor_id,
           ROW_NUMBER() OVER (PARTITION BY c.query_id
                              ORDER BY c.cos DESC, c.neighbor_id) AS rnk
    FROM cs c JOIN cand ON cand.vec_id = c.neighbor_id
                       AND cand.query_id = c.query_id) WHERE rnk <= {k}
), hits AS (
  SELECT e.query_id, COUNT(*) AS h
  FROM exact e JOIN approx a USING (query_id, neighbor_id)
  GROUP BY e.query_id
), stats AS (
  SELECT CAST((SELECT COUNT(*) FROM cand) AS BIGINT) AS n_cand_pairs,
         CAST((SELECT COUNT(*) FROM embeddings)
              * (SELECT COUNT(*) FROM q) AS BIGINT) AS n_pairs
)
SELECT CAST(q.query_id AS BIGINT) AS query_id,
       CAST(COALESCE(h.h, 0) AS BIGINT) AS n_hits,
       ROUND(CAST(COALESCE(h.h, 0) AS DOUBLE)
             / GREATEST((SELECT COUNT(*) FROM exact e
                         WHERE e.query_id = q.query_id), 1), 6) AS recall,
       s.n_cand_pairs, s.n_pairs
FROM q LEFT JOIN hits h USING (query_id) CROSS JOIN stats s
"""

SQL_MULTIMODAL_PAYLOAD_STATS = """
SELECT doc_id, CAST(strlen(text) AS BIGINT) AS payload_bytes FROM documents
"""

# Exact mirror of the real PPM decode path: the synthetic image's RGB
# raster byte k is (doc_id*31 + k*17 + 23) % 256 (multimodal.synth_ppm),
# 12x8 px => 288 raster bytes + 12 header bytes; channel c = bytes k%3==c.
# If the engine's P6 header parse or raster offset were wrong, the sums
# would not match.
SQL_MULTIMODAL_FEATURES = """
SELECT d.doc_id,
       'image/x-portable-pixmap' AS media_type,
       CAST(300 AS BIGINT) AS payload_bytes,
       CAST(12 AS BIGINT) AS width,
       CAST(8 AS BIGINT) AS height,
       CAST(SUM(CASE WHEN k % 3 = 0 THEN (d.doc_id*31 + k*17 + 23) % 256 END) AS BIGINT) AS sum_r,
       CAST(SUM(CASE WHEN k % 3 = 1 THEN (d.doc_id*31 + k*17 + 23) % 256 END) AS BIGINT) AS sum_g,
       CAST(SUM(CASE WHEN k % 3 = 2 THEN (d.doc_id*31 + k*17 + 23) % 256 END) AS BIGINT) AS sum_b
FROM documents d CROSS JOIN (SELECT unnest(range(288)) AS k)
GROUP BY d.doc_id
"""

# Exact mirror of the decode + 2x2 integer mean-pool resize path over
# the 12x8 PPM corpus: output pixel (ro, co, ch) of the 6x4 result is
# floor(mean of the four source bytes at rows 2ro/2ro+1, cols 2co/2co+1)
# and source byte k is the synth_ppm closed form — so the resized
# channel sums are integer-exact. If the decode, the block gather or
# the floor-mean were wrong, the sums would not match.
SQL_MULTIMODAL_RESIZE = """
WITH outpx AS (
  SELECT d.doc_id, j // 18 AS ro, (j % 18) // 3 AS co, j % 3 AS ch
  FROM documents d CROSS JOIN (SELECT unnest(range(72)) AS j)
), vals AS (
  SELECT doc_id, ch,
    ( ((doc_id*31 + ((2*ro*12 + 2*co)*3 + ch)*17 + 23) % 256)
    + ((doc_id*31 + ((2*ro*12 + 2*co + 1)*3 + ch)*17 + 23) % 256)
    + ((doc_id*31 + (((2*ro + 1)*12 + 2*co)*3 + ch)*17 + 23) % 256)
    + ((doc_id*31 + (((2*ro + 1)*12 + 2*co + 1)*3 + ch)*17 + 23) % 256)
    ) // 4 AS v
  FROM outpx
)
SELECT doc_id, 'image/x-portable-pixmap' AS media_type,
       CAST(6 AS BIGINT) AS out_width, CAST(4 AS BIGINT) AS out_height,
       CAST(SUM(CASE WHEN ch = 0 THEN v END) AS BIGINT) AS sum_r,
       CAST(SUM(CASE WHEN ch = 1 THEN v END) AS BIGINT) AS sum_g,
       CAST(SUM(CASE WHEN ch = 2 THEN v END) AS BIGINT) AS sum_b
FROM vals GROUP BY doc_id
"""

# Exact mirror of the real PNG decode path: per-doc dimensions
# (8 + doc_id%5) x (6 + doc_id%3), RGB raster byte k is
# (doc_id*41 + k*13 + 7) % 256 (multimodal.synth_png), scanline r uses
# filter type r % 5. If the engine's chunk walk, CRC check, inflate or
# any of the five un-filters were wrong, the channel sums or filter sum
# would not match. The zlib payload length is not closed-form, so the
# feature schema carries no payload_bytes.
SQL_MULTIMODAL_PNG = """
WITH dims AS (
  SELECT doc_id, 8 + doc_id % 5 AS w, 6 + doc_id % 3 AS h FROM documents
), px AS (
  SELECT doc_id, w, h, unnest(range(3 * w * h)) AS k FROM dims
), sums AS (
  SELECT doc_id, w, h,
    SUM(CASE WHEN k % 3 = 0 THEN (doc_id*41 + k*13 + 7) % 256 END) AS sum_r,
    SUM(CASE WHEN k % 3 = 1 THEN (doc_id*41 + k*13 + 7) % 256 END) AS sum_g,
    SUM(CASE WHEN k % 3 = 2 THEN (doc_id*41 + k*13 + 7) % 256 END) AS sum_b
  FROM px GROUP BY doc_id, w, h
), filt AS (
  SELECT doc_id, SUM(r % 5) AS filter_sum
  FROM (SELECT doc_id, unnest(range(h)) AS r FROM dims) GROUP BY doc_id
)
SELECT s.doc_id, 'image/png' AS media_type,
       CAST(s.w AS BIGINT) AS width, CAST(s.h AS BIGINT) AS height,
       CAST(8 AS BIGINT) AS bit_depth, CAST(2 AS BIGINT) AS color_type,
       CAST(f.filter_sum AS BIGINT) AS filter_sum,
       CAST(s.sum_r AS BIGINT) AS sum_r,
       CAST(s.sum_g AS BIGINT) AS sum_g,
       CAST(s.sum_b AS BIGINT) AS sum_b
FROM sums s JOIN filt f USING (doc_id)
"""

# TPC-H Q3 mirror: the textbook 3-way join + revenue ranking, same
# (ROUND-2 desc, date asc, key asc) ordering as the engine's
# merge-closed local top-k.
SQL_ORDERS_SHIPPING_PRIORITY = """
SELECT l_orderkey, o_orderdate,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1995-03-15'
  AND l_shipdate > TIMESTAMP '1995-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) DESC,
         o_orderdate, l_orderkey
LIMIT 10
"""

# Exact mirror of the real BMP decode path: the generator emits RGB
# scan-order byte k = (doc_id*53 + k*17 + 3) % 256; the BGR/bottom-up/
# padded storage is the decoder's problem, so the oracle only needs the
# closed forms for dims, padding and channel sums.
SQL_MULTIMODAL_BMP = """
WITH dims AS (
  SELECT doc_id, 7 + doc_id % 6 AS w, 5 + doc_id % 4 AS h FROM documents
), px AS (
  SELECT doc_id, w, h, unnest(range(3 * w * h)) AS k FROM dims
)
SELECT doc_id, 'image/bmp' AS media_type,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(24 AS BIGINT) AS bpp,
       CAST((4 - (w * 3) % 4) % 4 AS BIGINT) AS row_pad,
       CAST(SUM(CASE WHEN k % 3 = 0
                THEN (doc_id*53 + k*17 + 3) % 256 END) AS BIGINT) AS sum_r,
       CAST(SUM(CASE WHEN k % 3 = 1
                THEN (doc_id*53 + k*17 + 3) % 256 END) AS BIGINT) AS sum_g,
       CAST(SUM(CASE WHEN k % 3 = 2
                THEN (doc_id*53 + k*17 + 3) % 256 END) AS BIGINT) AS sum_b
FROM px GROUP BY doc_id, w, h
"""

# GIF mirror: palette index k = (doc_id*31 + k*7 + 1) % 8 (recovered
# only if the LZW decompress is right), channel closed forms through
# the 8-entry palette.
SQL_MULTIMODAL_GIF = """
WITH dims AS (
  SELECT doc_id, 6 + doc_id % 5 AS w, 4 + doc_id % 3 AS h FROM documents
), px AS (
  SELECT doc_id, w, h,
         (doc_id * 31 + unnest(range(w * h)) * 7 + 1) % 8 AS j
  FROM dims
)
SELECT doc_id, 'image/gif' AS media_type,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(8 AS BIGINT) AS palette_size,
       CAST(SUM(j) AS BIGINT) AS sum_idx,
       CAST(SUM((j * 37 + 5) % 256) AS BIGINT) AS sum_r,
       CAST(SUM((j * 59 + 11) % 256) AS BIGINT) AS sum_g,
       CAST(SUM((j * 83 + 23) % 256) AS BIGINT) AS sum_b
FROM px GROUP BY doc_id, w, h
"""

# A-law mirror: same encoded byte closed form, Sun alaw2linear in
# integers (xor 0x55 via the no-borrow identity on the known bit
# pattern is NOT safe in SQL -- DuckDB has a real xor()), sign bit
# SET means POSITIVE (the A-law/mu-law polarity difference).
SQL_MULTIMODAL_ALAW = """
WITH px AS (
  SELECT doc_id,
         xor((doc_id * 19 + unnest(range(256)) * 11 + 3) % 256, 85) AS a
  FROM documents
), s AS (
  SELECT doc_id,
    (CASE WHEN a >= 128 THEN 1 ELSE -1 END) *
    (CASE WHEN (a // 16) % 8 = 0 THEN (a % 16) * 16 + 8
          ELSE ((a % 16) * 16 + 264) *
               (CASE (a // 16) % 8 WHEN 1 THEN 1 WHEN 2 THEN 2
                     WHEN 3 THEN 4 WHEN 4 THEN 8 WHEN 5 THEN 16
                     WHEN 6 THEN 32 ELSE 64 END) END) AS amp
  FROM px
)
SELECT doc_id, 'audio/wav' AS media_type,
       CAST(300 AS BIGINT) AS payload_bytes,
       CAST(8000 AS BIGINT) AS sample_rate,
       CAST(1 AS BIGINT) AS n_channels,
       CAST(256 AS BIGINT) AS n_samples,
       CAST(SUM(amp) AS BIGINT) AS sum_amp,
       CAST(SUM(ABS(amp)) AS BIGINT) AS sum_abs_amp,
       CAST(MAX(ABS(amp)) AS BIGINT) AS max_abs_amp
FROM s GROUP BY doc_id
"""

# mu-law mirror: same encoded byte closed form, same all-integer G.711
# expansion (complement, 3-bit exponent via integer div, power-of-two
# CASE, sign from bit 7). Payload = 44-byte header + 256 bytes.
SQL_MULTIMODAL_ULAW = """
WITH px AS (
  SELECT doc_id,
         255 - ((doc_id * 13 + unnest(range(256)) * 7 + 5) % 256) AS u
  FROM documents
), s AS (
  SELECT doc_id,
    (CASE WHEN u >= 128 THEN -1 ELSE 1 END) *
    (((u % 16) * 8 + 132) *
     (CASE (u // 16) % 8 WHEN 0 THEN 1 WHEN 1 THEN 2 WHEN 2 THEN 4
           WHEN 3 THEN 8 WHEN 4 THEN 16 WHEN 5 THEN 32 WHEN 6 THEN 64
           ELSE 128 END) - 132) AS amp
  FROM px
)
SELECT doc_id, 'audio/wav' AS media_type,
       CAST(300 AS BIGINT) AS payload_bytes,
       CAST(8000 AS BIGINT) AS sample_rate,
       CAST(1 AS BIGINT) AS n_channels,
       CAST(256 AS BIGINT) AS n_samples,
       CAST(SUM(amp) AS BIGINT) AS sum_amp,
       CAST(SUM(ABS(amp)) AS BIGINT) AS sum_abs_amp,
       CAST(MAX(ABS(amp)) AS BIGINT) AS max_abs_amp
FROM s GROUP BY doc_id
"""

# Exact mirror of the real WAV decode path: the synthetic clip's sample
# k is ((doc_id*37 + k*29 + 11) % 65536) - 32768 (multimodal.synth_wav),
# 256 mono samples @ 8 kHz => 512 PCM bytes + 44-byte canonical RIFF
# header. If the engine's chunk walk, fmt parse, or int16 extraction
# were wrong, the amplitude sums would not match.
SQL_MULTIMODAL_AUDIO = """
SELECT d.doc_id,
       'audio/wav' AS media_type,
       CAST(556 AS BIGINT) AS payload_bytes,
       CAST(8000 AS BIGINT) AS sample_rate,
       CAST(1 AS BIGINT) AS n_channels,
       CAST(256 AS BIGINT) AS n_samples,
       CAST(SUM(((d.doc_id*37 + k*29 + 11) % 65536) - 32768) AS BIGINT) AS sum_amp,
       CAST(SUM(ABS(((d.doc_id*37 + k*29 + 11) % 65536) - 32768)) AS BIGINT) AS sum_abs_amp,
       CAST(MAX(ABS(((d.doc_id*37 + k*29 + 11) % 65536) - 32768)) AS BIGINT) AS max_abs_amp
FROM documents d CROSS JOIN (SELECT unnest(range(256)) AS k)
GROUP BY d.doc_id
"""

# Frame-sampling mirror: payload = text bytes, 64-byte frames, every
# 4th kept (frame indices 0,4,8,...); last frame may be short.
SQL_MULTIMODAL_FRAMES = """
WITH b AS (
  SELECT doc_id, octet_length(encode(text)) AS n FROM documents
  WHERE octet_length(encode(text)) > 0
), f AS (
  SELECT doc_id, n, unnest(range(0, CAST(ceil(n / 64.0) AS BIGINT), 4)) AS frame_no
  FROM b
)
SELECT doc_id, CAST(frame_no AS BIGINT) AS frame_no,
       CAST(LEAST(64, n - frame_no * 64) AS BIGINT) AS frame_len
FROM f
"""

# PII redaction mirror: the same synthetic-PII augmentation (closed form
# over doc_id) and the same RE2 patterns as functions/text.py — pyarrow
# and DuckDB both use RE2, so the redacted strings are byte-identical.
# Email masking runs FIRST in both (IP counting sees the emails gone).
_PII_EMAIL_RE = r"[A-Za-z0-9._]+@[A-Za-z0-9][A-Za-z0-9.-]*\.[A-Za-z]{2,}"
_PII_IPV4_RE = r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}"

SQL_DOC_PII_REDACT = f"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || CAST(doc_id AS VARCHAR) || '@mail'
              || CAST(doc_id % 7 AS VARCHAR) || '.example.com from 10.'
              || CAST(doc_id % 256 AS VARCHAR) || '.0.'
              || CAST(doc_id % 100 AS VARCHAR) AS t
  FROM documents
), e AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(t, '{_PII_EMAIL_RE}')) AS BIGINT) AS n_emails,
         regexp_replace(t, '{_PII_EMAIL_RE}', '<EMAIL>', 'g') AS t2
  FROM aug
)
SELECT doc_id,
       regexp_replace(t2, '{_PII_IPV4_RE}', '<IP>', 'g') AS text_redacted,
       n_emails,
       CAST(len(regexp_extract_all(t2, '{_PII_IPV4_RE}')) AS BIGINT) AS n_ips
FROM e
"""

# Repetition-counts mirror: space-split tokens with positions (parallel
# unnest zips equal-length lists in DuckDB), per-(doc, token) counts for
# the token stats, a positional self-join for adjacent bigrams.
SQL_DOC_REPETITION = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t,
         unnest(range(1, len(string_split(text, ' ')) + 1)) AS i
  FROM documents
), per_tok AS (
  SELECT doc_id, t, COUNT(*) AS c FROM tok GROUP BY doc_id, t
), base AS (
  SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
         CAST(COUNT(*) AS BIGINT) AS n_distinct_tokens,
         CAST(MAX(c) AS BIGINT) AS top_token_count
  FROM per_tok GROUP BY doc_id
), big AS (
  SELECT a.doc_id, a.t AS t1, b.t AS t2, COUNT(*) AS c
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  GROUP BY a.doc_id, a.t, b.t
)
SELECT base.doc_id, n_tokens, n_distinct_tokens, top_token_count,
       CAST(COALESCE(MAX(big.c), 0) AS BIGINT) AS top_bigram_count
FROM base LEFT JOIN big ON base.doc_id = big.doc_id
GROUP BY base.doc_id, n_tokens, n_distinct_tokens, top_token_count
"""

# Incremental-dedup mirror: even ids = existing corpus, odd = new
# snapshot; NOT IN anti-join on text (the engine groups by the md5
# hash — equivalent absent a 64-bit collision), first-wins + copy
# count within the new batch.
SQL_DOC_DEDUP_INCREMENTAL = """
WITH newd AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1
), oldd AS (
  SELECT DISTINCT text FROM documents WHERE doc_id % 2 = 0
)
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
FROM newd
WHERE text NOT IN (SELECT text FROM oldd)
GROUP BY text
"""

# Linear-classifier mirror: same per-token md5 63-bit bucket, integer
# centi-weights ((b*37)%101-50) summed exactly; keep is an integer
# compare and the score is a FLOORED integer micro-score (ROUND-6
# parity is a coin flip at the 100*n denominators' .5 boundaries).
SQL_DOC_QUALITY_LINEAR = """
WITH f AS (
  SELECT doc_id,
    CAST((('0x' || substr(md5(t), 1, 16))::UBIGINT >> 1) % 1024
         AS BIGINT) AS b
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t
        FROM documents)
), s AS (
  SELECT doc_id, COUNT(*) AS n, SUM(((b * 37) % 101) - 50) AS score_c
  FROM f GROUP BY doc_id
)
SELECT doc_id, CAST(n AS BIGINT) AS n_tokens,
       CAST(FLOOR(score_c * 10000.0 / n) AS BIGINT) AS score_micro,
       CAST(CASE WHEN score_c > 0 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM s
"""

# DSIR mirror: same md5 63-bit bucket hash, same Laplace-smoothed
# log-ratio per bucket; the per-doc SUM of identical ln() terms differs
# only by summation-order ulp -> ROUND-6 (doc_unigram_logprob rule).
SQL_DOC_DSIR_WEIGHTS = """
WITH b AS (
  SELECT doc_id, lang,
    CAST((('0x' || substr(md5(t), 1, 16))::UBIGINT >> 1) % 8192
         AS BIGINT) AS bucket
  FROM (SELECT doc_id, lang, unnest(string_split(text, ' ')) AS t
        FROM documents)
), hist AS (
  SELECT bucket, COUNT(*) AS cnt_r,
         COUNT(*) FILTER (WHERE lang = 'en') AS cnt_t
  FROM b GROUP BY bucket
), tot AS (
  SELECT SUM(cnt_r) AS R, SUM(cnt_t) AS T FROM hist
), lam AS (
  SELECT bucket,
         (ln(cnt_t + 1) - ln(T + 8192)) - (ln(cnt_r + 1) - ln(R + 8192))
           AS lam
  FROM hist, tot
)
SELECT b.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
       ROUND(SUM(lam.lam), 6) AS logw
FROM b JOIN lam USING (bucket) GROUP BY b.doc_id
"""

# Entropy mirror: same space-split tokens; p*ln(n/c) form (non-negative
# terms -> no -0.0 ambiguity) under ROUND-6.
SQL_DOC_ENTROPY = """
WITH c AS (
  SELECT doc_id, t, COUNT(*) AS c
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t
        FROM documents)
  GROUP BY doc_id, t
), n AS (
  SELECT doc_id, SUM(c) AS n, COUNT(*) AS n_types FROM c GROUP BY doc_id
)
SELECT c.doc_id, CAST(n.n AS BIGINT) AS n_tokens,
       CAST(n.n_types AS BIGINT) AS n_types,
       ROUND(SUM((c.c / n.n) * ln(n.n / c.c)), 6) AS entropy
FROM c JOIN n USING (doc_id)
GROUP BY c.doc_id, n.n, n.n_types
"""

SQL_DOC_VOCAB_TOPK = """
SELECT t AS token, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT unnest(string_split(text, ' ')) AS t FROM documents)
GROUP BY t ORDER BY n DESC, t LIMIT 100
"""

# BM25 mirror: the oracle rebuilds the SAME deterministic query (corpus
# top-3 tokens, count desc / token asc), then the Okapi formula in f64
# with idf = ln((N - df + 0.5)/(df + 0.5) + 1), k1 = 1.2, b = 0.75.
# avgdl is exactly equal on both sides (integer token counts sum
# exactly in f64 below 2^53); ROUND-6 + id tie-break absorbs libm ln
# noise.
SQL_DOC_BM25_TOPK = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
), q AS (
  SELECT t FROM tok GROUP BY t
  ORDER BY COUNT(*) DESC, t LIMIT 3
), dl AS (
  SELECT doc_id, len(string_split(text, ' ')) AS dl FROM documents
), st AS (
  SELECT (SELECT CAST(COUNT(*) AS DOUBLE) FROM documents) AS n,
         (SELECT AVG(CAST(dl AS DOUBLE)) FROM dl) AS avgdl
), tf AS (
  SELECT doc_id, t, CAST(COUNT(*) AS DOUBLE) AS tf
  FROM tok WHERE t IN (SELECT t FROM q)
  GROUP BY doc_id, t
), df AS (
  SELECT t, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df FROM tf GROUP BY t
), sc AS (
  SELECT tf.doc_id,
         SUM(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1)
             * tf.tf * 2.2
             / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl))) AS score
  FROM tf JOIN df USING (t) JOIN dl USING (doc_id), st
  GROUP BY tf.doc_id
)
SELECT doc_id, ROUND(score, 6) AS score FROM sc
ORDER BY ROUND(score, 6) DESC, doc_id
LIMIT 100
"""

# Bigram mirror: positional self-join of the space-split tokens on
# (doc_id, i+1) — doc boundaries can't pair by construction.
SQL_DOC_VOCAB_BIGRAMS = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t,
         unnest(range(0, len(string_split(text, ' ')))) AS i
  FROM documents
)
SELECT a.t || ' ' || b.t AS bigram, CAST(COUNT(*) AS BIGINT) AS n
FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
GROUP BY 1 ORDER BY n DESC, bigram LIMIT 100
"""

# Outlier-score mirror: per-dim AVG rebuilds the corpus mean, then the
# same f64 cosine arithmetic as the engine's broadcast score pass;
# the flag compares the ROUNDED cosine on both sides.
SQL_EMB_OUTLIER_SCORES = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), m AS (
  SELECT i, AVG(x) AS mu FROM u GROUP BY i
), mn AS (
  SELECT SQRT(SUM(mu * mu)) AS mnorm FROM m
), s AS (
  SELECT u.vec_id,
         COALESCE(SUM(u.x * m.mu)
                  / NULLIF(SQRT(SUM(u.x * u.x)) * MAX(mn.mnorm), 0),
                  0) AS cos
  FROM u JOIN m USING (i), mn
  GROUP BY u.vec_id
)
SELECT vec_id, ROUND(cos, 6) AS cos_mean,
       ROUND(cos, 6) < 0.0 AS is_outlier
FROM s
"""

# Joint text+embedding curation mirror: the SQL_DOC_CURATION lang/
# quality CTEs (minus the dedup-rep step this op doesn't take) inner-
# joined to SQL_EMB_OUTLIER_SCORES' cosine CTE on doc_id = vec_id; the
# embedding gate compares the ROUNDED cosine like the engine so the
# keep boundary is deterministic on both sides.
SQL_DOC_EMB_CURATION = f"""
WITH c AS (
  SELECT doc_id,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({{de}}))) AS c_de,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({{en}}))) AS c_en,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({{es}}))) AS c_es,
    len(list_filter(regexp_extract_all(lower(text), '[a-z]+'),
        x -> x IN ({{fr}}))) AS c_fr,
    CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
    len(regexp_extract_all(lower(text), '[a-z]+')) AS n_alpha
  FROM documents
), lang AS (
  SELECT doc_id, n_tokens, n_alpha, CAST(c_en AS BIGINT) AS n_stop_en,
    CASE
      WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
      WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
      WHEN c_es >= c_fr THEN 'es'
      ELSE 'fr' END AS pred_lang
  FROM c
), u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), m AS (
  SELECT i, AVG(x) AS mu FROM u GROUP BY i
), mn AS (
  SELECT SQRT(SUM(mu * mu)) AS mnorm FROM m
), s AS (
  SELECT u.vec_id,
         COALESCE(SUM(u.x * m.mu)
                  / NULLIF(SQRT(SUM(u.x * u.x)) * MAX(mn.mnorm), 0),
                  0) AS cos
  FROM u JOIN m USING (i), mn
  GROUP BY u.vec_id
)
SELECT l.doc_id, l.n_tokens, ROUND(s.cos, 6) AS cos_mean
FROM lang l JOIN s ON l.doc_id = s.vec_id
WHERE l.pred_lang = 'en'
  AND l.n_tokens BETWEEN 20 AND 1000
  AND l.n_stop_en * 10000 >= GREATEST(1, l.n_alpha) * 150
  AND ROUND(s.cos, 6) >= 0.0
""".format(de=_sql_list(LANG_STOPWORDS["de"]), en=_sql_list(LANG_STOPWORDS["en"]),
           es=_sql_list(LANG_STOPWORDS["es"]), fr=_sql_list(LANG_STOPWORDS["fr"]))

# Paragraph-dedup mirror: same deterministic augmentation (shared
# paragraph keyed by doc_id % 7 + unique tail), newline explode with
# 1-based positions, keep-first per distinct paragraph by (doc_id, idx).
SQL_DOC_PARAGRAPH_DEDUP = """
WITH aug AS (
  SELECT doc_id,
         text || chr(10) || 'Shared paragraph number ' ||
         CAST(doc_id % 7 AS VARCHAR) || '.' || chr(10) ||
         'Unique tail ' || CAST(doc_id AS VARCHAR) || '.' AS t
  FROM documents
), p AS (
  SELECT doc_id,
         unnest(str_split(t, chr(10))) AS para,
         unnest(range(1, len(str_split(t, chr(10))) + 1)) AS idx
  FROM aug
)
SELECT doc_id, idx - 1 AS para_idx, para
FROM p
WHERE para <> ''
QUALIFY ROW_NUMBER() OVER (PARTITION BY para ORDER BY doc_id, idx) = 1
"""

# Chunking mirror: same space-split tokens with positions; chunk i holds
# tokens [i*32, (i+1)*32); ordered string_agg rebuilds the chunk text
# (joining with ' ' reproduces the original substring, empties included).
SQL_DOC_CHUNK = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t,
         unnest(range(0, len(string_split(text, ' ')))) AS i
  FROM documents
)
SELECT doc_id, CAST(i // 32 AS BIGINT) AS chunk_no,
       string_agg(t, ' ' ORDER BY i) AS chunk_text,
       CAST(COUNT(*) AS BIGINT) AS n_chunk_tokens
FROM tok GROUP BY doc_id, i // 32
"""

# Centroid mirror through DuckDB's positional unnest; both sides sum the
# float32 values in float64 and round to 4 — order-of-summation noise is
# ~1e-12 relative, far inside the rounding.
SQL_EMB_LABEL_CENTROIDS = """
SELECT CAST(label AS BIGINT) AS label, CAST(i - 1 AS BIGINT) AS dim,
       ROUND(SUM(CAST(x AS DOUBLE)) / COUNT(*), 4) AS centroid
FROM (SELECT label, unnest(embedding) AS x,
             unnest(range(1, len(embedding) + 1)) AS i
      FROM embeddings)
GROUP BY label, i
"""

# SQ8 mirror through positional unnest: per-dim global min/max, then
# codes = clamp(floor((x-mn)/(mx-mn)*256), 0, 255). Both sides cast the
# float32 values to DOUBLE and run the identical IEEE op sequence, and
# both use floor (numpy rint is banker's rounding, SQL ROUND is
# half-away — floor sidesteps the mismatch), so the BIGINT codes are
# exactly equal, not approximately.
SQL_EMB_QUANTIZE_SQ8 = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), mm AS (
  SELECT i, MIN(x) AS mn, MAX(x) AS mx FROM u GROUP BY i
)
SELECT u.vec_id,
       list(CAST(LEAST(255.0, GREATEST(0.0,
            CASE WHEN mm.mx > mm.mn
                 THEN FLOOR((u.x - mm.mn) / (mm.mx - mm.mn) * 256.0)
                 ELSE 0.0 END)) AS BIGINT) ORDER BY u.i) AS codes
FROM u JOIN mm USING (i)
GROUP BY u.vec_id
"""

# Signed-random-projection mirror: the SAME integer SQ8 codes as the
# quantize gate, projected through the closed-form ±1 matrix (middle
# bit 16 of an LCG over the flat index d*k + j; u.i is 1-based so
# d = i - 1). All-integer arithmetic end to end — the projections gate
# as exact BIGINTs, no float rounding anywhere.
SQL_EMB_PROJECT_RP = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), mm AS (
  SELECT i, MIN(x) AS mn, MAX(x) AS mx FROM u GROUP BY i
), codes AS (
  SELECT u.vec_id, u.i, CAST(LEAST(255.0, GREATEST(0.0,
         CASE WHEN mm.mx > mm.mn
              THEN FLOOR((u.x - mm.mn) / (mm.mx - mm.mn) * 256.0)
              ELSE 0.0 END)) AS BIGINT) AS code
  FROM u JOIN mm USING (i)
), proj AS (
  SELECT c.vec_id, j.j AS component,
         SUM(CASE WHEN ((1103515245 * ((c.i - 1) * 16 + j.j) + 12345)
                        % 2147483648) // 65536 % 2 = 0
                  THEN c.code ELSE -c.code END) AS p
  FROM codes c CROSS JOIN (SELECT unnest(range(16)) AS j) j
  GROUP BY c.vec_id, j.j
)
SELECT vec_id, list(CAST(p AS BIGINT) ORDER BY component) AS proj
FROM proj GROUP BY vec_id
"""

# Asymmetric SQ8 search mirror: reconstruct every corpus vector
# through the SAME integer codes (floor/clamp as above, then midpoint
# x^ = mn + (code+0.5)*(mx-mn)/256), cosine against the full-precision
# min-vec_id query, ROUND-3 + id tie-break. All f64; the only nonlinear
# step (the code) is integer-exact, so values gate exactly.
SQL_EMB_ANN_SQ8 = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), mm AS (
  SELECT i, MIN(x) AS mn, MAX(x) AS mx FROM u GROUP BY i
), r AS (
  SELECT u.vec_id, u.i,
         mm.mn + (LEAST(255.0, GREATEST(0.0,
             CASE WHEN mm.mx > mm.mn
                  THEN FLOOR((u.x - mm.mn) / (mm.mx - mm.mn) * 256.0)
                  ELSE 0.0 END)) + 0.5) * (mm.mx - mm.mn) / 256.0 AS xh
  FROM u JOIN mm USING (i)
), q AS (
  SELECT i, x AS qx FROM u
  WHERE vec_id = (SELECT MIN(vec_id) FROM u)
), qn AS (
  SELECT SQRT(SUM(qx * qx)) AS qnorm FROM q
), s AS (
  SELECT r.vec_id,
         COALESCE(SUM(r.xh * q.qx)
                  / NULLIF(SQRT(SUM(r.xh * r.xh)) * MAX(qn.qnorm), 0),
                  0) AS cos
  FROM r JOIN q USING (i), qn
  GROUP BY r.vec_id
)
SELECT vec_id, ROUND(cos, 3) AS cos FROM s
WHERE vec_id <> (SELECT MIN(vec_id) FROM u)
ORDER BY ROUND(cos, 3) DESC, vec_id
LIMIT 10
"""

# PQ mirror: the codebook is the first 16 vec_id-multiples-of-stride
# rows (stride = n // 16 — closed form, so SQL can rebuild it), and the
# per-subspace assignment is arg_min over the composite BIGINT key
# floor(d2 * 1e6) * 64 + code — the float distance enters ONLY through
# the floored integer (floor on both sides; round() parity is a coin
# flip at .5), so the codes gate as exact BIGINTs.
SQL_EMB_PQ_CODES = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), cb AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS code, vec_id
  FROM (SELECT vec_id FROM embeddings
        WHERE vec_id % (SELECT GREATEST(1, COUNT(*) // 16)
                        FROM embeddings) = 0
        ORDER BY vec_id LIMIT 16)
), cbu AS (
  SELECT cb.code, u.i, u.x AS cx FROM cb JOIN u USING (vec_id)
), d AS (
  SELECT u.vec_id, CAST((u.i - 1) // 8 AS BIGINT) AS m, cbu.code,
         SUM((u.x - cbu.cx) * (u.x - cbu.cx)) AS d2
  FROM u JOIN cbu USING (i)
  GROUP BY u.vec_id, (u.i - 1) // 8, cbu.code
), a AS (
  SELECT vec_id, m,
         arg_min(code,
                 CAST(FLOOR(d2 * 1000000.0) AS BIGINT) * 64 + code) AS code
  FROM d GROUP BY vec_id, m
)
SELECT vec_id, list(CAST(code AS BIGINT) ORDER BY m) AS codes
FROM a GROUP BY vec_id
"""

# One-Lloyd-step mirror: same strided seeds as SQL_EMB_PQ_CODES' cb
# (k=16 at full dim), arg_min over the identical floored composite key,
# cluster means under ROUND-4 (the emb_label_centroids tolerance).
SQL_EMB_KMEANS_STEP = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), cb AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS j, vec_id
  FROM (SELECT vec_id FROM embeddings
        WHERE vec_id % (SELECT GREATEST(1, COUNT(*) // 16)
                        FROM embeddings) = 0
        ORDER BY vec_id LIMIT 16)
), cbu AS (
  SELECT cb.j, u.i, u.x AS cx FROM cb JOIN u USING (vec_id)
), d AS (
  SELECT u.vec_id, cbu.j, SUM((u.x - cbu.cx) * (u.x - cbu.cx)) AS d2
  FROM u JOIN cbu USING (i)
  GROUP BY u.vec_id, cbu.j
), a AS (
  SELECT vec_id,
         arg_min(j, CAST(FLOOR(d2 * 1000000.0) AS BIGINT) * 64 + j)
           AS cluster
  FROM d GROUP BY vec_id
)
SELECT a.cluster, CAST(u.i - 1 AS BIGINT) AS dim,
       COUNT(*) AS n_members,
       ROUND(SUM(u.x) / COUNT(*), 4) AS centroid
FROM a JOIN u USING (vec_id)
GROUP BY a.cluster, u.i
"""

# PQ-error mirror: same integer codes as SQL_EMB_PQ_CODES; the assigned
# code's d2 joins back and averages per subspace.
SQL_EMB_PQ_ERROR = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), cb AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS code, vec_id
  FROM (SELECT vec_id FROM embeddings
        WHERE vec_id % (SELECT GREATEST(1, COUNT(*) // 16)
                        FROM embeddings) = 0
        ORDER BY vec_id LIMIT 16)
), cbu AS (
  SELECT cb.code, u.i, u.x AS cx FROM cb JOIN u USING (vec_id)
), d AS (
  SELECT u.vec_id, CAST((u.i - 1) // 8 AS BIGINT) AS m, cbu.code,
         SUM((u.x - cbu.cx) * (u.x - cbu.cx)) AS d2
  FROM u JOIN cbu USING (i)
  GROUP BY u.vec_id, (u.i - 1) // 8, cbu.code
), a AS (
  SELECT vec_id, m,
         arg_min(code,
                 CAST(FLOOR(d2 * 1000000.0) AS BIGINT) * 64 + code) AS code
  FROM d GROUP BY vec_id, m
)
SELECT a.m AS m,
       ROUND(SUM(d.d2) / (SELECT COUNT(*) FROM embeddings), 6) AS mse
FROM a JOIN d ON d.vec_id = a.vec_id AND d.m = a.m AND d.code = a.code
GROUP BY a.m ORDER BY a.m
"""

# ADC search mirror: same integer codes as SQL_EMB_PQ_CODES, then the
# corpus distance estimate is the M-term sum of the query's partial
# squared-L2 against the ASSIGNED codebook entries; (round6, id asc)
# order on both sides.
SQL_EMB_ANN_PQ = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), cb AS (
  SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS code, vec_id
  FROM (SELECT vec_id FROM embeddings
        WHERE vec_id % (SELECT GREATEST(1, COUNT(*) // 16)
                        FROM embeddings) = 0
        ORDER BY vec_id LIMIT 16)
), cbu AS (
  SELECT cb.code, u.i, u.x AS cx FROM cb JOIN u USING (vec_id)
), d AS (
  SELECT u.vec_id, CAST((u.i - 1) // 8 AS BIGINT) AS m, cbu.code,
         SUM((u.x - cbu.cx) * (u.x - cbu.cx)) AS d2
  FROM u JOIN cbu USING (i)
  GROUP BY u.vec_id, (u.i - 1) // 8, cbu.code
), a AS (
  SELECT vec_id, m,
         arg_min(code,
                 CAST(FLOOR(d2 * 1000000.0) AS BIGINT) * 64 + code) AS code
  FROM d GROUP BY vec_id, m
), q AS (
  SELECT i, x AS qx FROM u WHERE vec_id = (SELECT MIN(vec_id) FROM u)
), lut AS (
  SELECT CAST((q.i - 1) // 8 AS BIGINT) AS m, cbu.code,
         SUM((q.qx - cbu.cx) * (q.qx - cbu.cx)) AS pd
  FROM q JOIN cbu USING (i)
  GROUP BY (q.i - 1) // 8, cbu.code
), s AS (
  SELECT a.vec_id, SUM(lut.pd) AS adc
  FROM a JOIN lut USING (m, code)
  GROUP BY a.vec_id
)
SELECT vec_id, ROUND(adc, 6) AS adc FROM s
WHERE vec_id <> (SELECT MIN(vec_id) FROM u)
ORDER BY ROUND(adc, 6), vec_id
LIMIT 10
"""

# Covariance mirror through a positional-unnest self-join: second
# moments SUM(x_i * x_j)/n minus the mean outer product, upper triangle
# only. Both sides divide f64 sums by the same n and round to 6;
# summation-order noise is ~1e-13 absolute, far inside the rounding.
SQL_EMB_COVARIANCE = """
WITH u AS (
  SELECT vec_id, CAST(x AS DOUBLE) AS x, i
  FROM (SELECT vec_id, unnest(embedding) AS x,
               unnest(range(1, len(embedding) + 1)) AS i
        FROM embeddings)
), m AS (
  SELECT i, SUM(x) / (SELECT COUNT(*) FROM embeddings) AS mu
  FROM u GROUP BY i
), p AS (
  SELECT a.i AS i, b.i AS j,
         SUM(a.x * b.x) / (SELECT COUNT(*) FROM embeddings) AS sxy
  FROM u a JOIN u b USING (vec_id)
  WHERE a.i <= b.i
  GROUP BY a.i, b.i
)
SELECT CAST(p.i - 1 AS BIGINT) AS dim_i, CAST(p.j - 1 AS BIGINT) AS dim_j,
       ROUND(p.sxy - ma.mu * mb.mu, 6) AS cov
FROM p JOIN m ma ON ma.i = p.i JOIN m mb ON mb.i = p.j
"""

# JSON-extraction mirror through DuckDB's real JSON parser (the engine
# uses an RE2 fast path; agreement proves it extracts the same field).
SQL_EVENTS_PROPS = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k
FROM events GROUP BY event_type
"""

# As-of join mirror via DuckDB's NATIVE ASOF JOIN; the CTE dedupes the
# right side per (user, ts) keeping max event_id — the same tie rule
# the engine's sort order encodes.
SQL_EVENTS_ASOF = """
WITH v AS (
  SELECT user_id, ts, MAX(event_id) AS event_id
  FROM events WHERE event_type = 'view' GROUP BY user_id, ts
), p AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'
)
SELECT p.event_id, p.user_id, p.ts,
       CAST(COALESCE(v.event_id, -1) AS BIGINT) AS matched_event_id,
       CAST(COALESCE(epoch_us(p.ts) - epoch_us(v.ts), -1) AS BIGINT) AS gap_us
FROM p ASOF LEFT JOIN v ON p.user_id = v.user_id AND v.ts <= p.ts
"""

# Range-join mirror: plain non-equi LEFT JOIN + group. COUNT(v.event_id)
# is 0 for empty windows; SUM is NULL -> COALESCE 0. Half-open
# [p.ts - 1h, p.ts) matches the engine's endpoint tie ranks.
SQL_EVENTS_WINDOW_JOIN = """
SELECT p.event_id, p.user_id, p.ts,
       CAST(COUNT(v.event_id) AS BIGINT) AS n_right,
       ROUND(COALESCE(SUM(v.value), 0), 2) AS sum_right_value
FROM (SELECT event_id, user_id, ts FROM events
      WHERE event_type = 'purchase') p
LEFT JOIN (SELECT event_id, user_id, ts, value FROM events
           WHERE event_type = 'view') v
  ON p.user_id = v.user_id
 AND v.ts >= p.ts - INTERVAL 60 MINUTE
 AND v.ts < p.ts
GROUP BY p.event_id, p.user_id, p.ts
"""

# Sliding-window mirror: cross join each event with offsets 0..k-1;
# window_start = (slide-bucket - offset) * slide, rebuilt as a
# timestamp via make_timestamp(us).
SQL_EVENTS_SLIDING = """
SELECT make_timestamp((epoch_us(ts) // 900000000 - i.i) * 900000000)
         AS window_start,
       event_type,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 2) AS sum_value
FROM events, (SELECT UNNEST(range(4)) AS i) i
GROUP BY 1, 2
"""

# User-LTV heavy-hitters mirror: same (ROUND-2 desc, n desc, id asc)
# total order as the engine's merge-closed per-partition top-k.
SQL_EVENTS_USER_VALUE_TOPK = """
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 2) AS total_value
FROM events GROUP BY user_id
ORDER BY ROUND(SUM(value), 2) DESC, COUNT(*) DESC, user_id
LIMIT 100
"""

# Sliding-distinct mirror: the same window expansion as
# SQL_EVENTS_SLIDING, COUNT(DISTINCT user_id) per window.
SQL_EVENTS_SLIDING_DISTINCT = """
SELECT make_timestamp((epoch_us(ts) // 900000000 - i.i) * 900000000)
         AS window_start,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events, (SELECT UNNEST(range(4)) AS i) i
GROUP BY 1 ORDER BY 1
"""

# Transition-bigram mirror via LEAD() over per-user (ts, event_id)
# order — the same adjacency the engine's sort+shift encodes.
SQL_EVENTS_TRANSITIONS = """
WITH seq AS (
  SELECT user_id, event_type,
         LEAD(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS next_type
  FROM events
)
SELECT event_type AS from_type, next_type AS to_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM seq WHERE next_type IS NOT NULL
GROUP BY 1, 2
"""

# Funnel mirror: chained min-after joins — stage N's first time is the
# MIN ts of stage-N events at-or-after stage N-1's first time (the same
# >= endpoint rule as the engine's searchsorted gate). CASE max_stage is
# valid because each CTE row exists only if the previous stage exists.
SQL_EVENTS_FUNNEL = """
WITH u AS (SELECT DISTINCT user_id FROM events),
s1 AS (SELECT user_id, MIN(ts) AS t1 FROM events
       WHERE event_type = 'view' GROUP BY 1),
s2 AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e
       JOIN s1 ON e.user_id = s1.user_id AND e.ts >= s1.t1
       WHERE e.event_type = 'click' GROUP BY 1),
s3 AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e
       JOIN s2 ON e.user_id = s2.user_id AND e.ts >= s2.t2
       WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT u.user_id,
       CAST(CASE WHEN s3.user_id IS NOT NULL THEN 3
                 WHEN s2.user_id IS NOT NULL THEN 2
                 WHEN s1.user_id IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS max_stage,
       CAST(COALESCE(epoch_us(s1.t1), -1) AS BIGINT) AS t_stage1_us,
       CAST(COALESCE(epoch_us(s2.t2), -1) AS BIGINT) AS t_stage2_us,
       CAST(COALESCE(epoch_us(s3.t3), -1) AS BIGINT) AS t_stage3_us
FROM u LEFT JOIN s1 ON u.user_id = s1.user_id
       LEFT JOIN s2 ON u.user_id = s2.user_id
       LEFT JOIN s3 ON u.user_id = s3.user_id
"""

# TF-IDF mirror: same space-split tokens, same ln(N/df) in double
# arithmetic; ranking on ROUND(score, 6) then token ASC matches the
# engine's rounded-score rank (mathematical ties like 2*ln(10) vs
# ln(100) collapse to the same rounded value on both sides).
SQL_DOC_TFIDF = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
), tf AS (
  SELECT doc_id, token, COUNT(*) AS c FROM tok GROUP BY 1, 2
), df AS (
  SELECT token, COUNT(DISTINCT doc_id) AS d FROM tok GROUP BY 1
), n AS (SELECT COUNT(*) AS nd FROM documents),
s AS (
  SELECT tf.doc_id, tf.token,
         ROUND(tf.c * ln(CAST(n.nd AS DOUBLE) / df.d), 6) AS score
  FROM tf JOIN df USING (token) CROSS JOIN n
)
SELECT doc_id, token, score, rnk FROM (
  SELECT *, CAST(ROW_NUMBER() OVER (
    PARTITION BY doc_id ORDER BY score DESC, token) AS BIGINT) AS rnk
  FROM s
) WHERE rnk <= 3
"""

# k-NN self-join mirror: brute-force cross join. Embeddings are CAST to
# DOUBLE[] BEFORE list_cosine_similarity: the engine computes in
# float64, and at 2500 output values float32 accumulation error (~1e-6)
# would flip 3rd-decimal roundings with near-certainty, while
# float64-vs-float64 disagreement is ~1e-13 per value. Rank order
# (cos DESC, neighbor ASC) matches the engine's lexsort.
SQL_EMB_KNN_JOIN = """
WITH c AS (
  SELECT a.vec_id AS vec_id, b.vec_id AS neighbor_id,
         ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                      CAST(b.embedding AS DOUBLE[])), 3)
           AS cos
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
)
SELECT vec_id, neighbor_id, cos, rnk FROM (
  SELECT *, CAST(ROW_NUMBER() OVER (
    PARTITION BY vec_id ORDER BY cos DESC, neighbor_id) AS BIGINT) AS rnk
  FROM c
) WHERE rnk <= 5
"""

# Unigram-LM logprob mirror: same space-split tokens; ln of the same
# double quotient on both sides (counts are exact ints < 2^53), mean
# over ~40 terms, ROUND 6 absorbs summation-order last-ulp noise.
SQL_DOC_UNIGRAM_LOGPROB = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
), g AS (
  SELECT t, COUNT(*) AS c FROM tok GROUP BY 1
), n AS (SELECT SUM(c) AS total FROM g)
SELECT tok.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_tokens,
       ROUND(SUM(-ln(g.c / n.total)) / COUNT(*), 6) AS avg_neg_logprob
FROM tok JOIN g ON tok.t = g.t CROSS JOIN n
GROUP BY 1
"""

# Bigram-LM mirror: same top-2000 bigram table (count desc, bigram asc
# ties), -ln(c12/c1) in-table, -ln(0.4*c2/total) backoff, ROUND-6 mean
# (libm-ulp noise only); docs with < 2 tokens have no pair rows.
SQL_DOC_BIGRAM_LOGPROB = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t,
         unnest(range(0, len(string_split(text, ' ')))) AS i
  FROM documents
), uni AS (
  SELECT t, COUNT(*) AS c FROM tok GROUP BY 1
), tot AS (SELECT SUM(c) AS total FROM uni),
pairs AS (
  SELECT a.doc_id, a.t AS w1, b.t AS w2, a.t || ' ' || b.t AS bg
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
), bcnt AS (
  SELECT bg, COUNT(*) AS c12 FROM pairs GROUP BY 1
), topk AS (
  SELECT bg, c12 FROM bcnt ORDER BY c12 DESC, bg LIMIT 2000
)
SELECT pairs.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       ROUND(SUM(CASE WHEN topk.bg IS NOT NULL
                      THEN -ln(topk.c12 / u1.c)
                      ELSE -ln(0.4 * u2.c / tot.total) END)
             / COUNT(*), 6) AS avg_neg_logprob
FROM pairs
LEFT JOIN topk ON pairs.bg = topk.bg
JOIN uni u1 ON pairs.w1 = u1.t
JOIN uni u2 ON pairs.w2 = u2.t
CROSS JOIN tot
GROUP BY pairs.doc_id
"""

# Running-total mirror: the same total (ts, event_id) order, ROWS
# UNBOUNDED PRECEDING frame; both engines accumulate sequentially.
SQL_EVENTS_RUNNING_TOTAL = """
SELECT event_id, user_id, ts,
       CAST(ROW_NUMBER() OVER w AS BIGINT) AS running_n,
       ROUND(SUM(value) OVER w, 6) AS running_value
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""

# A/B-test mirror: same md5 arm split on CAST(user_id AS VARCHAR),
# variance explicitly from the (n, sum, sumsq) moments (VAR_SAMP uses
# a different update rule), Welch t in the identical op order.
# QOI mirror: the synth pixel generator's closed forms (4-pixel value
# groups, every-7th anchor color, per-group channel steps, last-pixel
# blue tick) — all integer-exact.
SQL_MULTIMODAL_QOI = """
WITH dims AS (
  SELECT doc_id, 8 + doc_id % 5 AS w, 6 + doc_id % 3 AS h FROM documents
), px AS (
  SELECT doc_id, w, h, unnest(range(w * h)) AS k FROM dims
), v AS (
  SELECT doc_id, w, h, k, k // 4 AS j,
         (k // 4) % 7 = 0 AS anchor
  FROM px
), c AS (
  SELECT doc_id, w, h,
    CASE WHEN anchor THEN 10 ELSE (doc_id * 11 + j * 5) % 256 END AS r,
    CASE WHEN anchor THEN 200 ELSE (doc_id * 23 + j * 3) % 256 END AS g,
    (CASE WHEN anchor THEN 60 ELSE (doc_id * 5 + j) % 256 END
     + CASE WHEN k % 4 = 3 THEN 1 ELSE 0 END) % 256 AS b
  FROM v
)
SELECT doc_id, 'image/qoi' AS media_type,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(3 AS BIGINT) AS channels,
       CAST(SUM(r) AS BIGINT) AS sum_r,
       CAST(SUM(g) AS BIGINT) AS sum_g,
       CAST(SUM(b) AS BIGINT) AS sum_b
FROM c GROUP BY doc_id, w, h
"""

# Q18 mirror: integer quantities make the HAVING exact; o_totalprice
# is a source passthrough, so no ROUND is needed anywhere.
SQL_ORDERS_LARGE_VOLUME = """
WITH q AS (
  SELECT l_orderkey,
         CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY 1
  HAVING SUM(CAST(l_quantity AS BIGINT)) > 200
)
SELECT o.o_orderkey, c.c_custkey, c.c_name, o.o_totalprice, q.sum_qty
FROM q
JOIN orders o ON o.o_orderkey = q.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
"""

# Last-touch attribution mirror: the engine's forward-fill of touch
# positions cut at user-run starts == last_value(... IGNORE NULLS) over
# ROWS UNBOUNDED PRECEDING AND 1 PRECEDING under the same total
# (ts, event_id) order; ROUND-2 on the revenue fold (revenue rule).
SQL_EVENTS_ATTRIBUTION = """
WITH o AS (
  SELECT user_id, event_type, value,
         last_value(CASE WHEN event_type IN ('click', 'view')
                         THEN event_type END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS touch
  FROM events
)
SELECT COALESCE(touch, 'none') AS touch_type,
       CAST(COUNT(*) AS BIGINT) AS n_purchases,
       ROUND(SUM(value), 2) AS total_value
FROM o WHERE event_type = 'purchase' GROUP BY 1
"""

# Triplet-mining mirror: argmax through the floored composite key
# (emb_pq_codes idiom) with the +2e6 offset keeping keys non-negative
# (negative % would take the dividend's sign); DOUBLE[] cast per the
# float32-accumulation rule; COALESCE(-1) mirrors an absent class.
SQL_EMB_TRIPLET_MINING = """
WITH a AS (
  SELECT vec_id AS aid, CAST(embedding AS DOUBLE[]) AS av,
         CAST(label AS BIGINT) AS al
  FROM embeddings ORDER BY vec_id LIMIT 10
), c AS (
  SELECT a.aid, a.al, e.vec_id AS vid, CAST(e.label AS BIGINT) AS vl,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), a.av) AS cos
  FROM embeddings e, a WHERE e.vec_id <> a.aid
), k AS (
  SELECT aid, al, vid, vl,
         (CAST(FLOOR(cos * 1000000) AS BIGINT) + 2000000) * 8589934592
           + (8589934591 - vid) AS key
  FROM c
)
SELECT aid AS anchor_id, al AS anchor_label,
       CAST(COALESCE(8589934591 -
         (MAX(CASE WHEN vl = al THEN key END) % 8589934592), -1)
         AS BIGINT) AS pos_id,
       CAST(COALESCE(8589934591 -
         (MAX(CASE WHEN vl <> al THEN key END) % 8589934592), -1)
         AS BIGINT) AS neg_id
FROM k GROUP BY aid, al
"""

# Cohort-LTV mirror: integer week math on microsecond epochs (epoch_us
# // week == the engine's int64 division; float epoch() would ROUND
# under CAST where // truncates). ROUND-2 on the revenue fold.
SQL_EVENTS_COHORT_LTV = """
WITH e AS (
  SELECT user_id, event_type, value,
         epoch_us(ts) // 604800000000 AS w,
         MIN(epoch_us(ts) // 604800000000)
           OVER (PARTITION BY user_id) AS cw
  FROM events
)
SELECT CAST(cw AS BIGINT) AS cohort_week,
       CAST(w - cw AS BIGINT) AS age_weeks,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(CASE WHEN event_type = 'purchase' THEN value ELSE 0 END),
             2) AS revenue
FROM e GROUP BY 1, 2
"""

SQL_EVENTS_ATTRIBUTION_FIRST = """
WITH o AS (
  SELECT user_id, event_type, value,
         first_value(CASE WHEN event_type IN ('click', 'view')
                          THEN event_type END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS touch
  FROM events
)
SELECT COALESCE(touch, 'none') AS touch_type,
       CAST(COUNT(*) AS BIGINT) AS n_purchases,
       ROUND(SUM(value), 2) AS total_value
FROM o WHERE event_type = 'purchase' GROUP BY 1
"""

SQL_EVENTS_AB_TTEST = """
WITH e AS (
  SELECT CAST((('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))
              ::UBIGINT >> 1) % 2 AS BIGINT) AS arm,
         value
  FROM events
), s AS (
  SELECT arm, COUNT(*) AS n, SUM(value) AS sv, SUM(value * value) AS svv
  FROM e GROUP BY arm
)
SELECT a.n AS n_a, b.n AS n_b,
       ROUND(a.sv / a.n, 6) AS mean_a, ROUND(b.sv / b.n, 6) AS mean_b,
       ROUND((a.sv / a.n - b.sv / b.n)
             / sqrt(((a.svv - a.sv * a.sv / a.n) / (a.n - 1)) / a.n
                  + ((b.svv - b.sv * b.sv / b.n) / (b.n - 1)) / b.n),
             6) AS t_stat
FROM s a JOIN s b ON a.arm = 0 AND b.arm = 1
"""

# User-feature mirror: plain grouped aggregates; active days via
# CAST(ts AS DATE) = the engine's epoch-day integer division.
SQL_EVENTS_USER_FEATURES = """
SELECT user_id,
       COUNT(*) AS n_events,
       ROUND(SUM(value), 6) AS total_value,
       COUNT(DISTINCT event_type) AS n_event_types,
       MIN(ts) AS first_ts, MAX(ts) AS last_ts,
       COUNT(DISTINCT CAST(ts AS DATE)) AS n_active_days
FROM events GROUP BY user_id
"""

# RFM mirror: scalar-subquery as-of date; recency rides DuckDB's `//`
# (BIGINT floor division) over epoch_us — exact-integer parity with the
# engine's numpy int64 division, no float gate.
SQL_CUSTOMER_RFM = """
WITH g AS (SELECT MAX(o_orderdate) AS mx FROM orders)
SELECT o_custkey AS c_custkey,
       (epoch_us(g.mx) - epoch_us(MAX(o_orderdate))) // 86400000000
         AS recency_days,
       COUNT(*) AS frequency,
       ROUND(SUM(o_totalprice), 2) AS monetary
FROM orders, g
GROUP BY o_custkey, g.mx
"""

# Semi-join mirror: EXISTS via IN; membership, not multiplicity.
SQL_ORDERS_WITH_RETURNS = """
SELECT o_orderpriority, COUNT(*) AS n_orders,
       ROUND(SUM(o_totalprice), 2) AS total_price
FROM orders
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                     WHERE l_returnflag = 'R')
GROUP BY o_orderpriority
"""

# CCNet-buckets mirror: same unigram score as SQL_DOC_UNIGRAM_LOGPROB,
# then ROW_NUMBER under the round6-int composite key (score key asc,
# doc_id asc) and tertile bucket by integer division — DuckDB's `/` on
# integers returns DOUBLE, so `//` is required for the bucket.
SQL_DOC_CCNET_BUCKETS = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
), g AS (
  SELECT t, COUNT(*) AS c FROM tok GROUP BY 1
), n AS (SELECT SUM(c) AS total FROM g),
sc AS (
  SELECT tok.doc_id,
         ROUND(SUM(-ln(g.c / n.total)) / COUNT(*), 6) AS score
  FROM tok JOIN g ON tok.t = g.t CROSS JOIN n
  GROUP BY 1
), r AS (
  SELECT doc_id, score,
         ROW_NUMBER() OVER (
           ORDER BY CAST(ROUND(score, 6) * 1000000 AS BIGINT), doc_id
         ) - 1 AS rk,
         COUNT(*) OVER () AS nn
  FROM sc
)
SELECT doc_id, score, CAST(rk AS BIGINT) AS ccnet_rank,
       CAST((3 * rk) // nn AS BIGINT) AS bucket
FROM r
"""

# Bigram-LM mirror: the same top-V vocab ranking as tokenize_ids
# (count desc, token asc; OOV -> 0), a positional self-join for the
# transitions (never crossing doc boundaries by construction), add-one
# smoothing over the (|vocab|+1)-way id space, ROUND-6 mean like the
# unigram oracle. Both sides do the -ln in float64.
SQL_DOC_PERPLEXITY_BIGRAM = """
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), tok AS (
  SELECT doc_id, unnest(ws) AS t, unnest(range(0, len(ws))) AS i FROM w
), vocab AS (
  SELECT t AS token, ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, t ASC) AS id
  FROM tok GROUP BY t ORDER BY id LIMIT 1000
), m AS (
  SELECT map(list(token ORDER BY id), list(id ORDER BY id)) AS mp FROM vocab
), vv AS (
  SELECT COUNT(*) + 1 AS wsz FROM vocab
), idt AS (
  SELECT doc_id, i, CAST(COALESCE(mp[t][1], 0) AS BIGINT) AS id
  FROM tok, m
), big AS (
  SELECT a.doc_id, a.id AS ida, b.id AS idb
  FROM idt a JOIN idt b ON a.doc_id = b.doc_id AND b.i = a.i + 1
), cb AS (
  SELECT ida, idb, COUNT(*) AS c FROM big GROUP BY ida, idb
), ca AS (
  SELECT ida, COUNT(*) AS c FROM big GROUP BY ida
)
SELECT big.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       ROUND(SUM(-LN((cb.c + 1.0) / (ca.c + vv.wsz))) / COUNT(*), 6)
         AS avg_neg_logprob
FROM big JOIN cb USING (ida, idb) JOIN ca USING (ida) CROSS JOIN vv
GROUP BY big.doc_id
"""

# Sequence-packing mirror: the engine's two-pass distributed prefix
# sum == one window cumsum in doc_id order; whitespace token counts
# match pc.split_pattern (both count empty segments).
SQL_DOC_PACK_SEQUENCES = """
WITH t AS (
  SELECT doc_id,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
), o AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
           AND 1 PRECEDING), 0) AS BIGINT) AS tok_offset
  FROM t
)
SELECT doc_id, n_tokens, tok_offset,
       tok_offset // 512 AS seq_first,
       (tok_offset + n_tokens - 1) // 512 AS seq_last
FROM o
"""

# Materialized-packing mirror: per (doc, sequence) span the fragment
# is a 1-based inclusive list_slice of the doc's tokens; the sequence
# ids come from generate_series in its scalar-list form (the DuckDB-1.0
# lateral-correlation workaround noted for doc_chunk).
SQL_DOC_PACK_MATERIALIZE = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), o AS (
  SELECT doc_id, ws,
         CAST(len(ws) AS BIGINT) AS n_tokens,
         CAST(COALESCE(SUM(len(ws)) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
           AND 1 PRECEDING), 0) AS BIGINT) AS tok_offset
  FROM t
), f AS (
  SELECT doc_id, ws, n_tokens, tok_offset,
         unnest(generate_series(tok_offset // 512,
                                (tok_offset + n_tokens - 1) // 512))
           AS seq_id
  FROM o
)
SELECT doc_id,
       CAST(seq_id AS BIGINT) AS seq_id,
       CAST(LEAST((seq_id + 1) * 512, tok_offset + n_tokens)
            - GREATEST(seq_id * 512, tok_offset) AS BIGINT)
         AS n_frag_tokens,
       array_to_string(list_slice(
         ws,
         GREATEST(seq_id * 512, tok_offset) - tok_offset + 1,
         LEAST((seq_id + 1) * 512, tok_offset + n_tokens) - tok_offset
       ), ' ') AS frag_text
FROM f
"""

# Group-wise top-k mirror: ROW_NUMBER over the same (n_chars DESC,
# doc_id ASC) order the engine's lexsort + cumcount encodes. ROW_NUMBER
# is unique, so ties never widen the result past k.
SQL_DOC_GROUP_TOPK = """
SELECT doc_id, lang, n_chars, rnk FROM (
  SELECT doc_id, lang, n_chars,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rnk
  FROM documents
) WHERE rnk <= 3
"""

# quantile_cont == linear interpolation at rank q*(n-1), numpy
# 'linear'; ROUND 6 absorbs last-ulp interpolation-order differences.
SQL_EVENTS_QUANTILES = """
SELECT event_type,
       ROUND(quantile_cont(value, 0.5), 6) AS p50,
       ROUND(quantile_cont(value, 0.9), 6) AS p90,
       ROUND(quantile_cont(value, 0.99), 6) AS p99
FROM events GROUP BY 1
"""

# Star-schema 3-table mirror; both sides sum float64, ROUND 2 absorbs
# the summation-order difference (same convention as lineitem_pricing).
SQL_SUPPLIER_NATION_REVENUE = """
SELECT n.n_name,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM lineitem l
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
GROUP BY n.n_name
"""

# Retention mirror: distinct (user, day) pairs, each user's min day as
# the cohort; COUNT(*) over the distinct pairs == distinct users per
# (cohort, offset) because a user has exactly one cohort.
SQL_EVENTS_RETENTION = """
WITH d AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
), c AS (
  SELECT user_id, MIN(day) AS cohort_day FROM d GROUP BY 1
)
SELECT c.cohort_day,
       CAST(date_diff('day', c.cohort_day, d.day) AS BIGINT)
         AS offset_days,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM d JOIN c USING (user_id)
GROUP BY 1, 2
"""

SQL_PART_BRAND_REVENUE = """
SELECT p.p_brand,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       ROUND(SUM(l.l_quantity), 2) AS sum_qty,
       ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY 1
"""

SQL_REGION_REVENUE_BY_YEAR = """
SELECT r.r_name,
       CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS year,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(o.o_totalprice), 2) AS revenue
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY 1, 2
"""

# Anti-join mirror (TPC-H Q22's core shape).
SQL_CUSTOMER_NO_ORDERS = """
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(COUNT(*) AS BIGINT) AS n_no_order_customers
FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderstatus = 'F')
GROUP BY c_nationkey
ORDER BY c_nationkey
"""

SQL_CUSTOMER_NATION_AGG = """
SELECT n.n_name,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       ROUND(SUM(c.c_acctbal), 2) AS total_acctbal
FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""

SQL_LINEITEM_PRICING = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       CAST(COUNT(*) AS BIGINT) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""

SQL_ORDERS_MKTSEGMENT_REVENUE = """
SELECT c.c_mktsegment,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(o.o_totalprice), 2) AS revenue
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""

SQL_ORDERS_BY_MONTH = """
SELECT strftime(o_orderdate, '%Y-%m') AS month,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(SUM(o_totalprice), 2) AS revenue
FROM orders GROUP BY 1
"""

SQL_EVENTS_SESSIONIZE = """
WITH ordered AS (
  SELECT user_id, event_id, ts, value,
         CASE WHEN ts - LAG(ts) OVER w <= INTERVAL 30 MINUTE THEN 0 ELSE 1 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), numbered AS (
  SELECT *, SUM(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                   ROWS UNBOUNDED PRECEDING) AS session_no
  FROM ordered
)
SELECT user_id,
       MIN(ts) AS session_start,
       MAX(ts) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 2) AS sum_value
FROM numbered GROUP BY user_id, session_no
"""

# Exact-DAU mirror: same date_trunc, COUNT(DISTINCT).
SQL_EVENTS_DAILY_ACTIVE = """
SELECT date_trunc('day', ts) AS day,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1 ORDER BY 1
"""

# MAD anomaly mirror: integer daily counts -> medians are exact binary
# fractions (.5 grain, MAD .25), so the > threshold*MAD gate compares
# identical f64 values on both sides (no rounding boundary; ROUND-6 is
# a no-op on the emitted med/mad).
SQL_EVENTS_ANOMALY_MAD = """
WITH d AS (
  SELECT event_type, date_trunc('day', ts) AS day,
         CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1, 2
), m AS (
  SELECT event_type, MEDIAN(n_events) AS med FROM d GROUP BY 1
), v AS (
  SELECT d.event_type, MEDIAN(ABS(d.n_events - m.med)) AS mad
  FROM d JOIN m USING (event_type) GROUP BY 1
)
SELECT d.event_type, d.day, d.n_events,
       CAST(m.med AS DOUBLE) AS med, CAST(v.mad AS DOUBLE) AS mad,
       CAST(CASE WHEN ABS(d.n_events - m.med) > 3.0 * v.mad
            THEN 1 ELSE 0 END AS BIGINT) AS is_anomaly
FROM d JOIN m USING (event_type) JOIN v USING (event_type)
"""

SQL_EVENTS_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS hour,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def data_queries() -> dict:
    return {
        "doc_dedup_exact": dp_dedup.doc_dedup_exact,
        "doc_dedup_substring": dp_dedup.doc_dedup_substring,
        "doc_sample_hash": dp_dedup.doc_sample_hash,
        "doc_sample_reservoir": dp_dedup.doc_sample_reservoir,
        "doc_sample_weighted": dp_dedup.doc_sample_weighted,
        "doc_split_assign": dp_dedup.doc_split_assign,
        "doc_length_histogram": dp_dedup.doc_length_histogram,
        "doc_decontaminate": dp_dedup.doc_decontaminate,
        "doc_sample_stratified": dp_dedup.doc_sample_stratified,
        "doc_dedup_minhash": dp_dedup.doc_dedup_minhash,
        "doc_dedup_ngram": dp_dedup.doc_dedup_ngram,
        "doc_dedup_containment": dp_dedup.doc_dedup_containment,
        "doc_curation_pipeline": dp_text.doc_curation_pipeline,
        "doc_curation_report": dp_text.doc_curation_report,
        "doc_dedup_clusters": dp_dedup.doc_dedup_clusters,
        "doc_dedup_clusters_lp": dp_dedup.doc_dedup_clusters_lp,
        "doc_dedup_near_keep": dp_dedup.doc_dedup_near_keep,
        # threshold 0.5 for the driver gate: the testdata embeddings
        # carry label clusters but no planted 0.95-cosine duplicates,
        # so the production default would emit 0 rows and the rows-only
        # check would gate nothing
        "emb_semdedup": lambda sf: dp_emb.emb_semdedup(sf, threshold=0.5),
        "emb_kmeans": dp_emb.emb_kmeans,
        "doc_dedup_simhash": dp_dedup.doc_dedup_simhash,
        "emb_dedup_cosine": dp_dedup.emb_dedup_cosine,
        "emb_similarity_topk": dp_emb.emb_similarity_topk,
        "emb_batch_search": dp_emb.emb_batch_search,
        "emb_ann_recall": dp_emb.emb_ann_recall,
        "emb_ann_lsh": dp_emb.emb_ann_lsh,
        "emb_ann_ivf": dp_emb.emb_ann_ivf,
        "emb_quantize_sq8": dp_emb.emb_quantize_sq8,
        "emb_project_rp": dp_emb.emb_project_rp,
        "emb_ann_sq8": dp_emb.emb_ann_sq8,
        "emb_kmeans_step": dp_emb.emb_kmeans_step,
        "emb_pq_codes": dp_emb.emb_pq_codes,
        "emb_ann_pq": dp_emb.emb_ann_pq,
        "emb_pq_error": dp_emb.emb_pq_error,
        "doc_compression_ratio": dp_dedup.doc_compression_ratio,
        "emb_covariance": dp_emb.emb_covariance,
        "emb_pca_project": dp_emb.emb_pca_project,
        "emb_ann_ivfpq": dp_emb.emb_ann_ivfpq,
        "emb_sample_balanced": dp_emb.emb_sample_balanced,
        "doc_token_stats": dp_text.doc_token_stats,
        "doc_token_stats_jsonl": dp_text.doc_token_stats_jsonl,
        "doc_lang_id": dp_text.doc_lang_id,
        "doc_fingerprint": dp_text.doc_fingerprint,
        "doc_winnow": dp_text.doc_winnow,
        "doc_pii_redact": dp_text.doc_pii_redact,
        "doc_repetition_stats": dp_text.doc_repetition_stats,
        "doc_quality_gopher": dp_text.doc_quality_gopher,
        "doc_quality_c4": dp_text.doc_quality_c4,
        "doc_ccnet_buckets": dp_retrieval.doc_ccnet_buckets,
        "doc_emb_curation": dp_rel_events.doc_emb_curation,
        "doc_paragraph_dedup": dp_text.doc_paragraph_dedup,
        "doc_mix_epochs": dp_dedup.doc_mix_epochs,
        "doc_dedup_incremental": dp_rel_events.doc_dedup_incremental,
        "doc_quality_linear": dp_text.doc_quality_linear,
        "doc_dsir_weights": dp_text.doc_dsir_weights,
        "doc_entropy": dp_text.doc_entropy,
        "doc_vocab_topk": dp_text.doc_vocab_topk,
        "doc_vocab_bigrams": dp_text.doc_vocab_bigrams,
        "doc_bm25_topk": dp_retrieval.doc_bm25_topk,
        "emb_outlier_scores": dp_emb.emb_outlier_scores,
        "doc_tokenize_ids": dp_text.doc_tokenize_ids,
        "doc_perplexity_bigram": dp_text.doc_perplexity_bigram,
        "doc_shuffle_order": dp_text.doc_shuffle_order,
        "doc_chunk": dp_retrieval.doc_chunk,
        "emb_label_centroids": dp_retrieval.emb_label_centroids,
        "events_props_extract": dp_retrieval.events_props_extract,
        "events_asof_join": dp_retrieval.events_asof_join,
        "events_window_join": dp_retrieval.events_window_join,
        "events_sliding_window": dp_rel_events.events_sliding_window,
        "events_sliding_distinct": dp_rel_events.events_sliding_distinct,
        "events_user_value_topk": dp_rel_events.events_user_value_topk,
        "events_running_total": dp_rel_events.events_running_total,
        "events_ab_ttest": dp_rel_events.events_ab_ttest,
        "events_attribution": dp_rel_events.events_attribution,
        "events_attribution_first": dp_rel_events.events_attribution_first,
        "events_cohort_ltv": dp_rel_events.events_cohort_ltv,
        "emb_triplet_mining": dp_retrieval.emb_triplet_mining,
        "orders_large_volume": dp_rel_events.orders_large_volume,
        "multimodal_qoi_features": dp_multimodal.multimodal_qoi_features,
        "doc_dedup_bloom": dp_rel_events.doc_dedup_bloom,
        "events_user_features": dp_rel_events.events_user_features,
        "events_transitions": dp_rel_events.events_transitions,
        "events_quantiles": dp_rel_events.events_quantiles,
        "events_quantiles_kll": dp_rel_events.events_quantiles_kll,
        "doc_group_topk": dp_text.doc_group_topk,
        "doc_pack_sequences": dp_text.doc_pack_sequences,
        "doc_decontaminate_ngram": dp_dedup.doc_decontaminate_ngram,
        "doc_decontaminate_neardup": dp_dedup.doc_decontaminate_neardup,
        "doc_pack_materialize": dp_text.doc_pack_materialize,
        "events_funnel": dp_retrieval.events_funnel,
        "doc_tfidf": dp_retrieval.doc_tfidf,
        "emb_knn_join": dp_retrieval.emb_knn_join,
        "doc_unigram_logprob": dp_retrieval.doc_unigram_logprob,
        "doc_bigram_logprob": dp_retrieval.doc_bigram_logprob,
        "multimodal_payload_stats": dp_multimodal.multimodal_payload_stats,
        "multimodal_frame_sample": dp_multimodal.multimodal_frame_sample,
        "multimodal_features": dp_multimodal.multimodal_features,
        "multimodal_png_features": dp_multimodal.multimodal_png_features,
        "multimodal_bmp_features": dp_multimodal.multimodal_bmp_features,
        "multimodal_gif_features": dp_multimodal.multimodal_gif_features,
        "multimodal_image_resize": dp_multimodal.multimodal_image_resize,
        "multimodal_audio_features": dp_multimodal.multimodal_audio_features,
        "multimodal_ulaw_features": dp_multimodal.multimodal_ulaw_features,
        "multimodal_alaw_features": dp_multimodal.multimodal_alaw_features,
        "customer_nation_agg": dp_rel_events.customer_nation_agg,
        "customer_no_orders": dp_rel_events.customer_no_orders,
        "supplier_nation_revenue": dp_retrieval.supplier_nation_revenue,
        "part_brand_revenue": dp_retrieval.part_brand_revenue,
        "region_revenue_by_year": dp_retrieval.region_revenue_by_year,
        "events_retention": dp_retrieval.events_retention,
        "orders_mktsegment_revenue": dp_rel_events.orders_mktsegment_revenue,
        "orders_shipping_priority": dp_rel_events.orders_shipping_priority,
        "orders_with_returns": dp_rel_events.orders_with_returns,
        "customer_rfm": dp_rel_events.customer_rfm,
        "lineitem_pricing_summary": dp_rel_events.lineitem_pricing_summary,
        "orders_by_month": dp_rel_events.orders_by_month,
        "events_hourly": dp_retrieval.events_hourly,
        "events_daily_active": dp_retrieval.events_daily_active,
        "events_anomaly_mad": dp_retrieval.events_anomaly_mad,
        "events_sessionize": dp_rel_events.events_sessionize,
        "events_sessionize_salted": dp_rel_events.events_sessionize_salted,
    }


def data_oracle_sql() -> dict:
    # emb_ann_lsh is gated against the EXACT top-k SQL: with the default
    # multi-table multiprobe settings its result is exact-equal on the
    # test corpora (see the operator docstring for the recall/speed
    # trade-off).
    return {
        "doc_dedup_exact": SQL_DOC_DEDUP_EXACT,
        "doc_dedup_substring": SQL_DOC_DEDUP_SUBSTRING,
        "doc_sample_hash": SQL_DOC_SAMPLE_HASH,
        "doc_sample_reservoir": SQL_DOC_SAMPLE_RESERVOIR,
        "doc_sample_weighted": SQL_DOC_SAMPLE_WEIGHTED,
        "doc_split_assign": SQL_DOC_SPLIT_ASSIGN,
        "doc_length_histogram": SQL_DOC_LENGTH_HISTOGRAM,
        "doc_decontaminate": SQL_DOC_DECONTAMINATE,
        "doc_sample_stratified": SQL_DOC_SAMPLE_STRATIFIED,
        "doc_dedup_minhash": SQL_DOC_DEDUP_MINHASH,
        "doc_dedup_ngram": SQL_DOC_DEDUP_NGRAM,
        "doc_dedup_containment": SQL_DOC_DEDUP_CONTAINMENT,
        "doc_curation_pipeline": SQL_DOC_CURATION,
        "doc_curation_report": SQL_DOC_CURATION_REPORT,
        "doc_dedup_clusters": SQL_DOC_DEDUP_CLUSTERS,
        "doc_dedup_clusters_lp": SQL_DOC_DEDUP_CLUSTERS,
        "doc_dedup_near_keep": SQL_DOC_DEDUP_NEAR_KEEP,
        "doc_dedup_simhash": SQL_DOC_DEDUP_SIMHASH,
        # r5: the Bloom sketch and the LSH recall evaluator are
        # deterministic integer/seeded-constant pipelines, so even
        # their "approximate" outputs gate exactly
        "doc_dedup_bloom": SQL_DOC_DEDUP_BLOOM,
        "emb_ann_recall": sql_emb_ann_recall(),
        "doc_fingerprint": SQL_DOC_FINGERPRINT,
        "doc_winnow": SQL_DOC_WINNOW,
        "doc_pii_redact": SQL_DOC_PII_REDACT,
        "doc_repetition_stats": SQL_DOC_REPETITION,
        "doc_quality_gopher": SQL_DOC_QUALITY_GOPHER,
        "doc_quality_c4": SQL_DOC_QUALITY_C4,
        "doc_ccnet_buckets": SQL_DOC_CCNET_BUCKETS,
        "doc_emb_curation": SQL_DOC_EMB_CURATION,
        "doc_paragraph_dedup": SQL_DOC_PARAGRAPH_DEDUP,
        "doc_mix_epochs": SQL_DOC_MIX_EPOCHS,
        "doc_dedup_incremental": SQL_DOC_DEDUP_INCREMENTAL,
        "doc_quality_linear": SQL_DOC_QUALITY_LINEAR,
        "doc_dsir_weights": SQL_DOC_DSIR_WEIGHTS,
        "doc_entropy": SQL_DOC_ENTROPY,
        "doc_vocab_topk": SQL_DOC_VOCAB_TOPK,
        "doc_vocab_bigrams": SQL_DOC_VOCAB_BIGRAMS,
        "doc_bm25_topk": SQL_DOC_BM25_TOPK,
        "emb_outlier_scores": SQL_EMB_OUTLIER_SCORES,
        "doc_tokenize_ids": SQL_DOC_TOKENIZE_IDS,
        "doc_chunk": SQL_DOC_CHUNK,
        "emb_label_centroids": SQL_EMB_LABEL_CENTROIDS,
        "events_props_extract": SQL_EVENTS_PROPS,
        "events_asof_join": SQL_EVENTS_ASOF,
        "events_window_join": SQL_EVENTS_WINDOW_JOIN,
        "events_sliding_window": SQL_EVENTS_SLIDING,
        "events_sliding_distinct": SQL_EVENTS_SLIDING_DISTINCT,
        "events_user_value_topk": SQL_EVENTS_USER_VALUE_TOPK,
        "events_running_total": SQL_EVENTS_RUNNING_TOTAL,
        "events_ab_ttest": SQL_EVENTS_AB_TTEST,
        "events_attribution": SQL_EVENTS_ATTRIBUTION,
        "events_attribution_first": SQL_EVENTS_ATTRIBUTION_FIRST,
        "events_cohort_ltv": SQL_EVENTS_COHORT_LTV,
        "emb_triplet_mining": SQL_EMB_TRIPLET_MINING,
        "orders_large_volume": SQL_ORDERS_LARGE_VOLUME,
        "multimodal_qoi_features": SQL_MULTIMODAL_QOI,
        "events_user_features": SQL_EVENTS_USER_FEATURES,
        "events_transitions": SQL_EVENTS_TRANSITIONS,
        "events_quantiles": SQL_EVENTS_QUANTILES,
        "doc_group_topk": SQL_DOC_GROUP_TOPK,
        "doc_pack_sequences": SQL_DOC_PACK_SEQUENCES,
        "doc_decontaminate_ngram": SQL_DOC_DECONTAMINATE_NGRAM,
        "doc_decontaminate_neardup": SQL_DOC_DECONTAMINATE_NEARDUP,
        "doc_pack_materialize": SQL_DOC_PACK_MATERIALIZE,
        "events_funnel": SQL_EVENTS_FUNNEL,
        "doc_tfidf": SQL_DOC_TFIDF,
        "emb_knn_join": SQL_EMB_KNN_JOIN,
        "doc_unigram_logprob": SQL_DOC_UNIGRAM_LOGPROB,
        "doc_bigram_logprob": SQL_DOC_BIGRAM_LOGPROB,
        "doc_perplexity_bigram": SQL_DOC_PERPLEXITY_BIGRAM,
        "doc_shuffle_order": SQL_DOC_SHUFFLE_ORDER,
        "emb_ann_lsh": SQL_EMB_SIMILARITY_TOPK,
        "emb_ann_ivf": SQL_EMB_SIMILARITY_TOPK,
        "emb_ann_ivfpq": SQL_EMB_SIMILARITY_TOPK,
        "multimodal_features": SQL_MULTIMODAL_FEATURES,
        "multimodal_png_features": SQL_MULTIMODAL_PNG,
        "multimodal_bmp_features": SQL_MULTIMODAL_BMP,
        "multimodal_gif_features": SQL_MULTIMODAL_GIF,
        "multimodal_image_resize": SQL_MULTIMODAL_RESIZE,
        "multimodal_audio_features": SQL_MULTIMODAL_AUDIO,
        "multimodal_ulaw_features": SQL_MULTIMODAL_ULAW,
        "multimodal_alaw_features": SQL_MULTIMODAL_ALAW,
        "multimodal_frame_sample": SQL_MULTIMODAL_FRAMES,
        "emb_dedup_cosine": SQL_EMB_DEDUP_COSINE,
        "emb_quantize_sq8": SQL_EMB_QUANTIZE_SQ8,
        "emb_project_rp": SQL_EMB_PROJECT_RP,
        "emb_ann_sq8": SQL_EMB_ANN_SQ8,
        "emb_kmeans_step": SQL_EMB_KMEANS_STEP,
        "emb_pq_codes": SQL_EMB_PQ_CODES,
        "emb_ann_pq": SQL_EMB_ANN_PQ,
        "emb_pq_error": SQL_EMB_PQ_ERROR,
        "emb_covariance": SQL_EMB_COVARIANCE,
        "emb_sample_balanced": SQL_EMB_SAMPLE_BALANCED,
        "emb_similarity_topk": SQL_EMB_SIMILARITY_TOPK,
        "emb_batch_search": SQL_EMB_BATCH_SEARCH,
        "doc_token_stats": SQL_DOC_TOKEN_STATS,
        "doc_token_stats_jsonl": SQL_DOC_TOKEN_STATS,
        "doc_lang_id": SQL_DOC_LANG_ID,
        "multimodal_payload_stats": SQL_MULTIMODAL_PAYLOAD_STATS,
        "customer_nation_agg": SQL_CUSTOMER_NATION_AGG,
        "customer_no_orders": SQL_CUSTOMER_NO_ORDERS,
        "supplier_nation_revenue": SQL_SUPPLIER_NATION_REVENUE,
        "part_brand_revenue": SQL_PART_BRAND_REVENUE,
        "region_revenue_by_year": SQL_REGION_REVENUE_BY_YEAR,
        "events_retention": SQL_EVENTS_RETENTION,
        "orders_mktsegment_revenue": SQL_ORDERS_MKTSEGMENT_REVENUE,
        "orders_shipping_priority": SQL_ORDERS_SHIPPING_PRIORITY,
        "orders_with_returns": SQL_ORDERS_WITH_RETURNS,
        "customer_rfm": SQL_CUSTOMER_RFM,
        "lineitem_pricing_summary": SQL_LINEITEM_PRICING,
        "orders_by_month": SQL_ORDERS_BY_MONTH,
        "events_hourly": SQL_EVENTS_HOURLY,
        "events_daily_active": SQL_EVENTS_DAILY_ACTIVE,
        "events_anomaly_mad": SQL_EVENTS_ANOMALY_MAD,
        "events_sessionize": SQL_EVENTS_SESSIONIZE,
        "events_sessionize_salted": SQL_EVENTS_SESSIONIZE,
    }
