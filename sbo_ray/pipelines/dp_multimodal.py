"""Multimodal family: payload stats, frame sampling, real image decoders (PPM/PNG/BMP/GIF/QOI), resize, and audio (PCM/u-law/A-law) feature queries.

Imports what it uses by name from the module that defines it, and
callers import this module's ops from here. Monkeypatch a helper where
the op resolves it.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..codec import one_array
from ..exchange import _cpus
from ..functions.multimodal import DecoderStub, to_payload_table

from .dp_common import _read

# ---- multimodal plumbing ---------------------------------------------------


def _decode_pool() -> dict:
    """``map_batches`` kwargs of the decode actor pools. The pool starts
    its minimum before any input is read, so a read task must still find
    a CPU beside it: at most ``cpus - 1`` one-CPU actors, floor of 1,
    and a 1-CPU session's single actor reserves no CPU (the pool holding
    the only CPU while waiting on a read that needs it hangs the query).
    Two actors from 3 CPUs up; the maximum grows with the cluster so a
    big cluster's decode stage isn't starved at a hardcoded width."""
    cpus = _cpus()
    lo = max(1, min(2, cpus - 1))
    return {"concurrency": (lo, max(lo, cpus - 1)),
            "num_cpus": 1 if cpus > 1 else 0}


def multimodal_payload_stats(sf_dir: str):
    """Binary-payload metadata (the SQL-checkable half of the multimodal
    plumbing: byte sizes of the opaque payload column)."""
    payload = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        to_payload_table, batch_format="pyarrow"
    )
    return payload.select_columns(["doc_id", "payload_bytes"])


def multimodal_frame_sample(sf_dir: str, every_k: int = 4):
    """Video-style frame-sampling plumbing as a gated query: payloads
    (text bytes) split into fixed 64-byte frames, every k-th kept, one
    output row per sampled frame with its byte length — the fan-out
    shape + boundary arithmetic are SQL-mirrored exactly."""
    from ..functions.multimodal import frame_sample

    payload = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        to_payload_table, batch_format="pyarrow"
    )
    frames = payload.map_batches(
        lambda b: frame_sample(b, every_k=every_k), batch_format="pyarrow"
    )

    def lengths(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "frame_no": pc.cast(b.column("frame_no"), pa.int64()),
            "frame_len": pc.binary_length(
                one_array(b.column("frame"))
            ).cast(pa.int64()),
        })

    return frames.map_batches(lengths, batch_format="pyarrow")


def multimodal_features(sf_dir: str):
    """REAL image decode through the actor-pool stage: deterministic
    synthetic PPM payloads (one per doc), decoded by the pure-numpy P6
    parser inside ``DecoderStub(fake=False)`` — header parse, raster
    extraction, integer per-channel feature sums. Gated by an exact SQL
    oracle (the pixel generator is a closed form). Actor-pool shape:
    decode state loads once per actor; small batch_size because payload
    batches are large."""
    from ..functions.multimodal import PAYLOAD_SCHEMA, PPM_MEDIA_TYPE, synth_ppm

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_ppm(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([PPM_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_images, batch_format="pyarrow"
    )
    return payload.map_batches(
        DecoderStub,
        fn_constructor_kwargs={"fake": False},
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_png_features(sf_dir: str):
    """REAL PNG decode through the actor-pool stage: deterministic
    synthetic RGB8 PNGs (one per doc, per-doc dimensions, per-scanline
    filter types cycling 0-4), decoded by the stdlib-zlib + numpy
    parser inside ``PngDecoder`` — CRC-checked chunk walk, IHDR
    validation, inflate, all-five-filter un-filtering. Gated by an
    exact SQL oracle (dimensions, filter-type sum and pixel bytes are
    closed forms over doc_id; the compressed payload length is not, so
    the feature schema carries no payload_bytes). Same actor-pool shape
    as the PPM/WAV paths."""
    from ..functions.multimodal import (
        PAYLOAD_SCHEMA, PNG_MEDIA_TYPE, PngDecoder, synth_png,
    )

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_png(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([PNG_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_images, batch_format="pyarrow"
    )
    return payload.map_batches(
        PngDecoder,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_bmp_features(sf_dir: str):
    """REAL BMP decode through the actor-pool stage: deterministic
    synthetic 24-bit BMPs (width cycles all four row-padding values,
    bottom-up BGR storage), decoded by the stdlib-struct + numpy parser
    inside ``BmpDecoder`` — the third real image codec beside PPM and
    PNG. Gated by an exact SQL oracle: dimensions, the row padding and
    the RGB channel sums are closed forms over doc_id (the generator
    emits RGB scan order; storage order is the decoder's problem).
    Same actor-pool shape as the other decode paths."""
    from ..functions.multimodal import (
        BMP_MEDIA_TYPE, BmpDecoder, PAYLOAD_SCHEMA, synth_bmp,
    )

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_bmp(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([BMP_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_images, batch_format="pyarrow"
    )
    return payload.map_batches(
        BmpDecoder,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_gif_features(sf_dir: str):
    """REAL GIF decode through the actor-pool stage: deterministic
    synthetic GIF87a payloads (8-color global palette, real
    variable-width LZW streams with dict growth) decoded by the
    stdlib-struct + numpy parser inside ``GifDecoder`` — the fourth
    real image codec beside PPM, PNG and BMP, and the only one whose
    pixel data is entropy-coded. Gated by an exact SQL oracle:
    dimensions, palette size, the palette-index sum (pins the LZW
    bitstream) and RGB channel sums (pin the color-table walk) are
    closed forms over doc_id."""
    from ..functions.multimodal import (
        GIF_MEDIA_TYPE, GifDecoder, PAYLOAD_SCHEMA, synth_gif,
    )

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_gif(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([GIF_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_images, batch_format="pyarrow"
    )
    return payload.map_batches(
        GifDecoder,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_qoi_features(sf_dir: str):
    """REAL QOI decode through the actor-pool stage: deterministic
    synthetic QOI payloads (full spec encoder — RUN/INDEX/DIFF/LUMA/RGB
    ops all exercised, asserted in tests) decoded by the pure-Python
    spec decoder inside ``QoiDecoder`` — the fifth real image codec
    beside PPM, PNG, BMP and GIF, and the only one combining
    run-length, hash-table and delta coding in one stream. Gated by an
    exact SQL oracle: dimensions and RGB channel sums are closed forms
    over doc_id."""
    from ..functions.multimodal import (
        PAYLOAD_SCHEMA, QOI_MEDIA_TYPE, QoiDecoder, synth_qoi,
    )

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_qoi(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([QOI_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_images, batch_format="pyarrow"
    )
    return payload.map_batches(
        QoiDecoder,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_image_resize(sf_dir: str):
    """REAL image resize through the actor-pool stage: deterministic
    synthetic PPM payloads decoded by the pure-numpy P6 parser, then a
    vectorized 2x2 integer mean-pool downsample (``mean_pool_2x2``) —
    the decode+resize stage a production image pipeline runs per batch
    (the reference has no image path; this is the training-data resize
    op the engine adds). Gated by an exact SQL oracle: each output
    pixel is floor(mean of its 2x2 source block) and the source pixel
    generator is a closed form, so the resized channel sums are
    integer-exact in DuckDB. Same actor-pool shape as the decode paths:
    kernel state loads once per actor, small batch_size because payload
    batches are large."""
    from ..functions.multimodal import (
        PAYLOAD_SCHEMA, PPM_MEDIA_TYPE, ImageResizer, synth_ppm,
    )

    def to_images(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_ppm(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([PPM_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_images, batch_format="pyarrow"
    )
    return payload.map_batches(
        ImageResizer,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_ulaw_features(sf_dir: str):
    """REAL G.711 mu-law decode (WAV format code 7 — the telephony
    variant, the first ENCODED audio the engine expands natively):
    deterministic synthetic mu-law clips decoded through the same
    AudioDecoder actor pool, whose chunk walker now recognizes the
    8-bit format-7 fmt chunk and expands companded bytes via the
    closed-form Sun ulaw2linear table. Gated exactly: the oracle
    rebuilds byte k = (doc_id*13 + k*7 + 5) % 256 and applies the same
    all-integer expansion (complement, 3-bit exponent, 4-bit mantissa,
    mag = (8*man+132)*2^e - 132)."""
    from ..functions.multimodal import (
        PAYLOAD_SCHEMA, WAV_MEDIA_TYPE, AudioDecoder, synth_wav_ulaw,
    )

    def to_clips(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_wav_ulaw(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([WAV_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_clips, batch_format="pyarrow"
    )
    return payload.map_batches(
        AudioDecoder,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_alaw_features(sf_dir: str):
    """The A-LAW half of G.711 (WAV format code 6, the European
    telephony companding law — mu-law's ITU sibling with a different
    segment structure: XOR-0x55 toggling, seg-0 linear region, sign
    bit SET = positive): same AudioDecoder actor pool, same exact
    all-integer SQL gate over the closed-form encoded bytes."""
    from ..functions.multimodal import (
        PAYLOAD_SCHEMA, WAV_MEDIA_TYPE, AudioDecoder, synth_wav_alaw,
    )

    def to_clips(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_wav_alaw(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([WAV_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_clips, batch_format="pyarrow"
    )
    return payload.map_batches(
        AudioDecoder,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )


def multimodal_audio_features(sf_dir: str):
    """REAL audio decode through the actor-pool stage: deterministic
    synthetic RIFF/PCM16 WAV payloads (one clip per doc), decoded by the
    pure-numpy chunk-walking parser inside ``AudioDecoder`` — header and
    fmt/data chunk parse, int16 sample extraction, integer amplitude
    features (sum / abs-sum / max-abs). Gated by an exact SQL oracle
    (the sample generator is a closed form). Same actor-pool shape as
    the image path: codec state loads once per actor, small batch_size
    because payload batches are large."""
    from ..functions.multimodal import (
        PAYLOAD_SCHEMA, WAV_MEDIA_TYPE, AudioDecoder, synth_wav,
    )

    def to_clips(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        payloads = [synth_wav(int(i)) for i in ids]
        return pa.Table.from_arrays(
            [
                pa.array(ids, type=pa.int64()),
                pa.array(payloads, type=pa.binary()),
                pa.array([WAV_MEDIA_TYPE] * len(ids), type=pa.string()),
                pa.array([len(p) for p in payloads], type=pa.int64()),
            ],
            schema=PAYLOAD_SCHEMA,
        )

    payload = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        to_clips, batch_format="pyarrow"
    )
    return payload.map_batches(
        AudioDecoder,
        batch_format="pyarrow",
        batch_size=256,
        **_decode_pool(),
    )
