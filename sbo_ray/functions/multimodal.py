"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video payloads are carried as ``binary`` columns with typed
metadata columns alongside. The decode / feature-extract steps run as an
actor-pool ``map_batches`` stage. PPM (P6) and PNG (RGB8, stdlib zlib)
images and RIFF/PCM16 WAV audio decode NATIVELY here (pure-numpy
parsers, no external codec) with integer feature sums, each gated by an
exact SQL oracle; media types whose codecs aren't in this container
(JPEG, mp3/ogg/flac) raise ``NotImplementedError`` from the same
stages, and a deterministic fake feature extractor (byte histogram)
remains for plumbing tests.

Scale notes: payload batches are large; callers should use a small
``batch_size`` (payload bytes x batch_size x concurrency must fit worker
heaps) and ``batch_format="pyarrow"`` (binary columns do not round-trip
pandas cleanly).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codec import one_array

PAYLOAD_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("payload", pa.binary()),
    ("media_type", pa.string()),   # e.g. image/png, audio/wav
    ("payload_bytes", pa.int64()),
])

FEATURE_DIM = 16


def to_payload_table(batch: pa.Table, text_col: str = "text",
                     media_type: str = "application/octet-stream") -> pa.Table:
    """Wrap a column as an opaque binary payload table (the test stand-in
    for real image/audio bytes)."""
    payload = one_array(batch.column(text_col).cast(pa.binary()))
    n = batch.num_rows
    return pa.Table.from_arrays(
        [
            one_array(batch.column("doc_id")),
            payload,
            pa.array([media_type] * n, type=pa.string()),
            pc.binary_length(payload).cast(pa.int64()),
        ],
        schema=PAYLOAD_SCHEMA,
    )


FRAME_BYTES = 64


def frame_sample(batch: pa.Table, every_k: int = 4) -> pa.Table:
    """Frame-sampling plumbing for video-like payloads: treat the payload
    as fixed-size frames and keep every k-th. Real codecs would decode
    container frames here (actor-pool stage); the fixed-byte framing is
    the deterministic stand-in — the batch/schema mechanics are real.
    One input row -> one row per sampled frame (the fan-out shape a video
    pipeline produces)."""
    doc_ids, frame_nos, frames = [], [], []
    for doc_id, payload in zip(batch.column("doc_id").to_pylist(),
                               batch.column("payload").to_pylist()):
        if not payload:
            continue
        n_frames = (len(payload) + FRAME_BYTES - 1) // FRAME_BYTES
        for fi in range(0, n_frames, every_k):
            doc_ids.append(doc_id)
            frame_nos.append(fi)
            frames.append(payload[fi * FRAME_BYTES:(fi + 1) * FRAME_BYTES])
    return pa.table({
        "doc_id": pa.array(doc_ids, type=pa.int64()),
        "frame_no": pa.array(frame_nos, type=pa.int32()),
        "frame": pa.array(frames, type=pa.binary()),
    })


def resize_features(batch: pa.Table, out_dim: int = 8) -> pa.Table:
    """Resize stage stand-in: average-pool the feature vector down to
    ``out_dim`` (what an image resize + re-embed would do dimensionally)."""
    feats = one_array(batch.column("features"))
    if len(feats) == 0:
        return batch
    m = feats.flatten().to_numpy(zero_copy_only=False).reshape(len(feats), -1)
    factor = m.shape[1] // out_dim
    if factor == 0:
        raise ValueError(
            f"cannot pool {m.shape[1]}-dim features down to {out_dim}")
    pooled = m[:, : factor * out_dim].reshape(len(feats), out_dim, factor).mean(axis=2)
    flat = pa.array(pooled.astype(np.float32).reshape(-1))
    offsets = pa.array(np.arange(0, (len(feats) + 1) * out_dim, out_dim,
                                 dtype=np.int32))
    return batch.set_column(
        batch.schema.get_field_index("features"), "features",
        pa.ListArray.from_arrays(offsets, flat),
    )


# ---- PPM (P6) image support: real, pure-numpy ------------------------------
PPM_MEDIA_TYPE = "image/x-portable-pixmap"


def make_ppm(width: int, height: int, pixels: np.ndarray) -> bytes:
    """Render an RGB pixel array (uint8, len == 3*w*h) as a binary PPM
    (P6) payload."""
    header = f"P6\n{width} {height}\n255\n".encode()
    return header + pixels.astype(np.uint8).tobytes()


def synth_ppm(doc_id: int, width: int = 12, height: int = 8) -> bytes:
    """Deterministic synthetic image per doc: byte k of the RGB raster is
    ``(doc_id*31 + k*17 + 23) % 256`` — a closed form the DuckDB oracle
    reproduces exactly (integer channel sums, no float rounding)."""
    k = np.arange(3 * width * height, dtype=np.int64)
    return make_ppm(width, height, ((doc_id * 31 + k * 17 + 23) % 256))


def decode_ppm(data: bytes) -> tuple[int, int, int, np.ndarray]:
    """Parse a binary PPM (P6): magic, whitespace/#-comment-tolerant
    header tokens (width, height, maxval), single whitespace, raster.
    Returns (width, height, maxval, uint8 array of 3*w*h). Raises
    ValueError on malformed input."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM payload")
    pos, tokens = 2, []
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise ValueError("truncated PPM header")
        tokens.append(int(data[start:pos]))
    pos += 1  # exactly one whitespace byte after maxval
    width, height, maxval = tokens
    if width <= 0 or height <= 0:
        # a negative count would make np.frombuffer read the whole buffer
        raise ValueError(f"invalid PPM dimensions {width}x{height}")
    if not 0 < maxval < 256:
        # maxval > 255 means 2-byte samples (PPM spec); decoding them as
        # uint8 would yield garbage silently — reject instead
        raise ValueError(f"unsupported PPM maxval {maxval} (1-byte samples only)")
    n = 3 * width * height
    raster = np.frombuffer(data, dtype=np.uint8, count=n, offset=pos)
    if len(raster) < n:
        raise ValueError("truncated PPM raster")
    return width, height, maxval, raster


FEATURE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("media_type", pa.string()),
    ("payload_bytes", pa.int64()),
    ("width", pa.int64()),
    ("height", pa.int64()),
    ("sum_r", pa.int64()),
    ("sum_g", pa.int64()),
    ("sum_b", pa.int64()),
])


class DecoderStub:
    """Actor-pool decode/feature stage for binary payload columns.

    ``__init__`` is where a real build would load codecs / models once
    per actor; ``__call__`` processes one payload batch. With
    ``fake=False`` it REALLY decodes ``image/x-portable-pixmap``
    payloads (pure-numpy P6 parser above) and emits integer per-channel
    feature sums; other media types raise NotImplementedError (their
    codecs aren't in this container). ``fake=True`` keeps the
    deterministic byte-histogram mode for plumbing tests.
    """

    def __init__(self, fake: bool = True) -> None:
        self.fake = fake
        # real build: self.model = load_decoder(...)  (once per actor)

    def _decode(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media = batch.column("media_type").to_pylist()
        w_v, h_v, r_v, g_v, b_v = [], [], [], [], []
        for mt, p in zip(media, payloads):
            if mt != PPM_MEDIA_TYPE:
                raise NotImplementedError(
                    f"no codec for {mt!r} in this environment "
                    f"(only {PPM_MEDIA_TYPE} decodes natively)"
                )
            w, h, _maxval, raster = decode_ppm(p)
            px = raster.astype(np.int64)
            w_v.append(w)
            h_v.append(h)
            r_v.append(int(px[0::3].sum()))
            g_v.append(int(px[1::3].sum()))
            b_v.append(int(px[2::3].sum()))
        return pa.Table.from_arrays(
            [
                one_array(batch.column("doc_id")),
                one_array(batch.column("media_type")),
                one_array(batch.column("payload_bytes")),
                pa.array(w_v, type=pa.int64()),
                pa.array(h_v, type=pa.int64()),
                pa.array(r_v, type=pa.int64()),
                pa.array(g_v, type=pa.int64()),
                pa.array(b_v, type=pa.int64()),
            ],
            schema=FEATURE_SCHEMA,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            return self._decode(batch)
        payloads = batch.column("payload").to_pylist()
        feats = np.zeros((len(payloads), FEATURE_DIM), dtype=np.float32)
        for i, p in enumerate(payloads):
            if p:
                b = np.frombuffer(p, dtype=np.uint8)
                hist = np.bincount(b >> 4, minlength=FEATURE_DIM).astype(np.float32)
                feats[i] = hist / max(1, len(b))
        flat = pa.array(feats.reshape(-1))
        offsets = pa.array(
            np.arange(0, (len(payloads) + 1) * FEATURE_DIM, FEATURE_DIM, dtype=np.int32)
        )
        feat_col = pa.ListArray.from_arrays(offsets, flat)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "media_type": batch.column("media_type"),
            "payload_bytes": batch.column("payload_bytes"),
            "features": feat_col,
        })


RESIZE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("media_type", pa.string()),
    ("out_width", pa.int64()),
    ("out_height", pa.int64()),
    ("sum_r", pa.int64()),
    ("sum_g", pa.int64()),
    ("sum_b", pa.int64()),
])


def mean_pool_2x2(rasters: np.ndarray, width: int, height: int) -> np.ndarray:
    """Vectorized 2x downsample of a stack of RGB rasters.

    ``rasters`` is (n, 3*width*height) uint8, row-major interleaved RGB.
    Each output pixel is the floor of the mean of its 2x2 source block
    (integer arithmetic: sum of four uint8 in int32, then ``// 4`` — the
    DuckDB oracle reproduces this exactly, no float rounding). Odd
    trailing rows/columns are truncated, as cv2.resize(INTER_AREA) does
    for non-dividing factors. Returns (n, out_h, out_w, 3) int32.
    """
    n = rasters.shape[0]
    oh, ow = height // 2, width // 2
    if oh == 0 or ow == 0:
        raise ValueError(f"image {width}x{height} too small for 2x2 pooling")
    px = rasters.reshape(n, height, width, 3)[:, : oh * 2, : ow * 2, :]
    return px.reshape(n, oh, 2, ow, 2, 3).astype(np.int32).sum(axis=(2, 4)) // 4


class ImageResizer:
    """Actor-pool resize stage: REAL PPM decode + 2x2 integer mean-pool.

    The shape a production image-resize stage takes on Ray Data — codec
    state loads once per actor (``__init__``), ``__call__`` decodes one
    payload batch, stacks the rasters and downsamples vectorized. Emits
    integer channel sums of the RESIZED image so the DuckDB oracle can
    gate the whole decode+pool path in closed form. Payloads whose
    dimensions differ within a batch are pooled per dimension group (the
    synth corpus is uniform; mixed batches stay correct, just less
    vectorized).
    """

    def __init__(self) -> None:
        pass  # real build: load codec / SIMD kernels once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media = batch.column("media_type").to_pylist()
        n = len(payloads)
        dims = np.empty((n, 2), dtype=np.int64)
        rasters: list[np.ndarray] = []
        for mt, p in zip(media, payloads):
            if mt != PPM_MEDIA_TYPE:
                raise NotImplementedError(
                    f"no codec for {mt!r} in this environment "
                    f"(only {PPM_MEDIA_TYPE} decodes natively)"
                )
            w, h, _maxval, raster = decode_ppm(p)
            dims[len(rasters)] = (w, h)
            rasters.append(raster)
        ow_v = np.zeros(n, dtype=np.int64)
        oh_v = np.zeros(n, dtype=np.int64)
        sums = np.zeros((n, 3), dtype=np.int64)
        if n:
            # pool per (w, h) group so uniform corpora run one stacked kernel
            order = np.lexsort((dims[:, 1], dims[:, 0]))
            bounds = np.flatnonzero(
                np.any(dims[order][1:] != dims[order][:-1], axis=1)) + 1
            for grp in np.split(order, bounds):
                w, h = int(dims[grp[0], 0]), int(dims[grp[0], 1])
                pooled = mean_pool_2x2(
                    np.stack([rasters[i] for i in grp]), w, h)
                ow_v[grp], oh_v[grp] = w // 2, h // 2
                sums[grp] = pooled.sum(axis=(1, 2), dtype=np.int64)

        return pa.Table.from_arrays(
            [
                one_array(batch.column("doc_id")),
                one_array(batch.column("media_type")),
                pa.array(ow_v), pa.array(oh_v),
                pa.array(sums[:, 0]), pa.array(sums[:, 1]),
                pa.array(sums[:, 2]),
            ],
            schema=RESIZE_SCHEMA,
        )


# ---- WAV (RIFF / PCM16) audio support: real, pure-numpy --------------------
WAV_MEDIA_TYPE = "audio/wav"


def make_wav(sample_rate: int, samples: np.ndarray, n_channels: int = 1) -> bytes:
    """Render int16 PCM samples as a binary RIFF/WAVE payload (the real
    on-disk format — 44-byte canonical header + little-endian samples).
    For ``n_channels > 1`` the samples must already be interleaved."""
    import struct

    pcm = np.asarray(samples, dtype="<i2").tobytes()
    byte_rate = sample_rate * n_channels * 2
    block_align = n_channels * 2
    hdr = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    fmt = b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, n_channels, sample_rate, byte_rate, block_align, 16
    )
    return hdr + fmt + b"data" + struct.pack("<I", len(pcm)) + pcm


def synth_wav(doc_id: int, n_samples: int = 256, sample_rate: int = 8000) -> bytes:
    """Deterministic synthetic mono clip per doc: sample k is
    ``((doc_id*37 + k*29 + 11) % 65536) - 32768`` — a closed form the
    DuckDB oracle reproduces exactly (integer amplitude sums, no float
    rounding). 256 samples @ 8 kHz -> 556-byte payload."""
    k = np.arange(n_samples, dtype=np.int64)
    s = ((doc_id * 37 + k * 29 + 11) % 65536) - 32768
    return make_wav(sample_rate, s.astype(np.int16))


def _ulaw_lut() -> np.ndarray:
    """G.711 mu-law byte -> linear PCM16 expansion table (the Sun
    ulaw2linear closed form: complement, 3-bit exponent, 4-bit
    mantissa; mag = (8*man + 132) * 2^e - 132, sign from bit 7)."""
    b = np.arange(256, dtype=np.int64)
    u = 255 - b
    e = (u >> 4) & 7
    man = u & 0xF
    mag = (man * 8 + 132) * (1 << e) - 132
    return np.where(u & 0x80, -mag, mag)


_ULAW_LUT = _ulaw_lut()


def _alaw_lut() -> np.ndarray:
    """G.711 A-law byte -> linear PCM16 expansion (Sun alaw2linear:
    XOR 0x55, 3-bit segment, 4-bit mantissa; seg 0 -> 16m+8, else
    (16m+264) << (seg-1); sign bit SET means POSITIVE in A-law)."""
    b = np.arange(256, dtype=np.int64)
    a = b ^ 0x55
    seg = (a >> 4) & 7
    man = a & 0xF
    mag = np.where(seg == 0, man * 16 + 8,
                   (man * 16 + 264) << np.maximum(seg - 1, 0))
    return np.where(a & 0x80, mag, -mag)


_ALAW_LUT = _alaw_lut()


def make_wav_g711(sample_rate: int, enc_bytes: bytes, fmt_code: int,
                  n_channels: int = 1) -> bytes:
    """Render raw G.711 companded bytes as a RIFF/WAVE payload
    (format code 7 = mu-law, 6 = A-law; 8 bits/sample — the telephony
    WAV variants)."""
    import struct

    byte_rate = sample_rate * n_channels
    hdr = b"RIFF" + struct.pack("<I", 36 + len(enc_bytes)) + b"WAVE"
    fmt = b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_code, n_channels, sample_rate, byte_rate,
        n_channels, 8)
    return (hdr + fmt + b"data" + struct.pack("<I", len(enc_bytes))
            + enc_bytes)


def make_wav_ulaw(sample_rate: int, ulaw_bytes: bytes,
                  n_channels: int = 1) -> bytes:
    return make_wav_g711(sample_rate, ulaw_bytes, 7, n_channels)


def make_wav_alaw(sample_rate: int, alaw_bytes: bytes,
                  n_channels: int = 1) -> bytes:
    return make_wav_g711(sample_rate, alaw_bytes, 6, n_channels)


def synth_wav_alaw(doc_id: int, n_samples: int = 256,
                   sample_rate: int = 8000) -> bytes:
    """Deterministic synthetic A-law clip per doc: encoded byte k is
    ``(doc_id*19 + k*11 + 3) % 256``; the decoded amplitudes are the
    all-integer A-law closed form the oracle rebuilds."""
    k = np.arange(n_samples, dtype=np.int64)
    return make_wav_alaw(
        sample_rate, ((doc_id * 19 + k * 11 + 3) % 256)
        .astype(np.uint8).tobytes())


def synth_wav_ulaw(doc_id: int, n_samples: int = 256,
                   sample_rate: int = 8000) -> bytes:
    """Deterministic synthetic mu-law clip per doc: encoded byte k is
    ``(doc_id*13 + k*7 + 5) % 256`` — the DECODED linear amplitudes are
    the G.711 closed form over that byte, which the DuckDB oracle
    rebuilds exactly (all-integer)."""
    k = np.arange(n_samples, dtype=np.int64)
    return make_wav_ulaw(
        sample_rate, ((doc_id * 13 + k * 7 + 5) % 256)
        .astype(np.uint8).tobytes())


def decode_wav(data: bytes) -> tuple[int, int, np.ndarray]:
    """Parse a RIFF/WAVE payload: walks the chunk list (word-aligned, so
    unknown chunks like LIST/INFO are skipped correctly), decodes PCM16
    (format 1) natively and both G.711 halves — mu-law (format 7) and
    A-law (format 6), 8-bit telephony variants — through their
    expansion LUTs, and returns
    ``(sample_rate, n_channels, int16 array of interleaved samples)``.
    Raises ValueError on malformed input and NotImplementedError for
    other encodings (no codec libs in this container)."""
    import struct

    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    fmt = None
    pcm = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"truncated WAV chunk {cid!r}")
        if cid == b"fmt ":
            if size < 16:
                raise ValueError("short fmt chunk")
            audio_format, n_channels, sample_rate, _br, _ba, bits = \
                struct.unpack_from("<HHIIHH", body, 0)
            if (audio_format, bits) not in ((1, 16), (7, 8), (6, 8)):
                raise NotImplementedError(
                    f"only PCM16 and G.711 mu-law/A-law WAV decode "
                    f"natively (format={audio_format}, bits={bits})"
                )
            if n_channels < 1:
                raise ValueError("WAV with zero channels")
            fmt = (sample_rate, n_channels, audio_format)
        elif cid == b"data":
            pcm = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or pcm is None:
        raise ValueError("WAV missing fmt or data chunk")
    sample_rate, n_channels, audio_format = fmt
    if audio_format in (6, 7):
        lut = _ULAW_LUT if audio_format == 7 else _ALAW_LUT
        samples = lut[np.frombuffer(pcm, dtype=np.uint8)].astype(np.int16)
        if n_channels > 1 and len(samples) % n_channels:
            samples = samples[: len(samples) // n_channels * n_channels]
        return sample_rate, n_channels, samples
    samples = np.frombuffer(pcm[: len(pcm) // 2 * 2], dtype="<i2")
    if n_channels > 1 and len(samples) % n_channels:
        samples = samples[: len(samples) // n_channels * n_channels]
    return sample_rate, n_channels, samples


AUDIO_FEATURE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("media_type", pa.string()),
    ("payload_bytes", pa.int64()),
    ("sample_rate", pa.int64()),
    ("n_channels", pa.int64()),
    ("n_samples", pa.int64()),
    ("sum_amp", pa.int64()),
    ("sum_abs_amp", pa.int64()),
    ("max_abs_amp", pa.int64()),
])


class AudioDecoder:
    """Actor-pool decode/feature stage for audio payload columns — the
    audio twin of ``DecoderStub``. REALLY decodes ``audio/wav`` (RIFF
    PCM16, pure-numpy parser above) and emits integer amplitude features
    (exact-SQL-gateable); compressed formats (mp3/ogg/flac) raise
    NotImplementedError — their codecs aren't in this container."""

    def __init__(self) -> None:
        pass  # real build: self.codec = load_audio_codecs() (once per actor)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media = batch.column("media_type").to_pylist()
        sr_v, ch_v, n_v, sum_v, abs_v, max_v = [], [], [], [], [], []
        for mt, p in zip(media, payloads):
            if mt != WAV_MEDIA_TYPE:
                raise NotImplementedError(
                    f"no codec for {mt!r} in this environment "
                    f"(only {WAV_MEDIA_TYPE} decodes natively)"
                )
            sample_rate, n_channels, samples = decode_wav(p)
            amp = samples.astype(np.int64)
            sr_v.append(sample_rate)
            ch_v.append(n_channels)
            n_v.append(len(samples) // n_channels)
            sum_v.append(int(amp.sum()))
            abs_v.append(int(np.abs(amp).sum()))
            max_v.append(int(np.abs(amp).max(initial=0)))

        def _col(name):
            return one_array(batch.column(name))

        return pa.Table.from_arrays(
            [
                _col("doc_id"), _col("media_type"), _col("payload_bytes"),
                pa.array(sr_v, type=pa.int64()),
                pa.array(ch_v, type=pa.int64()),
                pa.array(n_v, type=pa.int64()),
                pa.array(sum_v, type=pa.int64()),
                pa.array(abs_v, type=pa.int64()),
                pa.array(max_v, type=pa.int64()),
            ],
            schema=AUDIO_FEATURE_SCHEMA,
        )


# ---- PNG (RGB8) image support: real, stdlib-zlib + numpy -------------------
PNG_MEDIA_TYPE = "image/png"
_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(ctype: bytes, body: bytes) -> bytes:
    import struct
    import zlib

    return (struct.pack(">I", len(body)) + ctype + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF))


def make_png(width: int, height: int, pixels: np.ndarray) -> bytes:
    """Render an RGB8 pixel array (uint8, len == 3*w*h) as a real PNG:
    IHDR (color type 2), one zlib-compressed IDAT, IEND, CRC-correct
    chunks. Scanline r uses filter type ``r % 5`` so a decoder must
    implement ALL five filters (None/Sub/Up/Average/Paeth) to round-trip
    — a filter-0-only decoder fails on every image taller than 1 px."""
    import struct
    import zlib

    px = pixels.astype(np.uint8).reshape(height, width * 3)
    raw = bytearray()
    prev = np.zeros(width * 3, dtype=np.int64)
    for r in range(height):
        row = px[r].astype(np.int64)
        f = r % 5
        if f == 0:
            filt = row
        elif f == 1:   # Sub
            left = np.concatenate([[0, 0, 0], row[:-3]])
            filt = row - left
        elif f == 2:   # Up
            filt = row - prev
        elif f == 3:   # Average
            left = np.concatenate([[0, 0, 0], row[:-3]])
            filt = row - (left + prev) // 2
        else:          # Paeth
            left = np.concatenate([[0, 0, 0], row[:-3]])
            ul = np.concatenate([[0, 0, 0], prev[:-3]])
            p = left + prev - ul
            pa_, pb, pc_ = np.abs(p - left), np.abs(p - prev), np.abs(p - ul)
            pred = np.where((pa_ <= pb) & (pa_ <= pc_), left,
                            np.where(pb <= pc_, prev, ul))
            filt = row - pred
        raw.append(f)
        raw.extend((filt % 256).astype(np.uint8).tobytes())
        prev = row
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(bytes(raw)))
            + _png_chunk(b"IEND", b""))


def synth_png(doc_id: int) -> bytes:
    """Deterministic synthetic PNG per doc: width ``8 + doc_id % 5``,
    height ``6 + doc_id % 3``, RGB raster byte k is
    ``(doc_id*41 + k*13 + 7) % 256`` — closed forms the DuckDB oracle
    reproduces exactly (integer channel sums; the zlib-compressed
    payload length is NOT closed-form, so the feature schema carries no
    payload_bytes)."""
    w, h = 8 + doc_id % 5, 6 + doc_id % 3
    k = np.arange(3 * w * h, dtype=np.int64)
    return make_png(w, h, ((doc_id * 41 + k * 13 + 7) % 256))


def decode_png(data: bytes) -> tuple[int, int, int, int, int, np.ndarray]:
    """Parse an RGB8 PNG with stdlib zlib + numpy: signature, CRC-checked
    chunk walk, IHDR validation, multi-IDAT concat + inflate, and full
    five-filter un-filtering (Sub via per-channel-lane cumsum mod 256;
    Up vectorized; Average/Paeth serial in x over numpy rows — scanlines
    are short, rows are many). Returns ``(width, height, bit_depth,
    color_type, filter_sum, uint8 array of 3*w*h)`` where filter_sum is
    the sum of per-scanline filter-type bytes (pins that the decoder
    actually consumed them). Raises ValueError on malformed input and
    NotImplementedError for depths/color types/interlacing the pure-
    numpy path doesn't cover (no codec libs in this container)."""
    import struct
    import zlib

    if not data.startswith(_PNG_SIG):
        raise ValueError("not a PNG payload")
    pos = len(_PNG_SIG)
    ihdr = None
    idat = bytearray()
    seen_end = False
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        ctype = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        if len(body) < length or pos + 12 + length > len(data):
            raise ValueError(f"truncated PNG chunk {ctype!r}")
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if crc != (zlib.crc32(ctype + body) & 0xFFFFFFFF):
            raise ValueError(f"PNG chunk {ctype!r} CRC mismatch")
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat.extend(body)
        elif ctype == b"IEND":
            seen_end = True
            break
        pos += 12 + length
    if ihdr is None or not idat or not seen_end:
        raise ValueError("PNG missing IHDR/IDAT/IEND")
    width, height, bit_depth, color_type, comp, filt_m, interlace = ihdr
    if width <= 0 or height <= 0:
        raise ValueError(f"invalid PNG dimensions {width}x{height}")
    if comp != 0 or filt_m != 0:
        raise ValueError("unknown PNG compression/filter method")
    if interlace != 0:
        raise NotImplementedError("Adam7 interlacing not supported")
    if bit_depth != 8 or color_type != 2:
        raise NotImplementedError(
            f"only RGB8 PNGs decode natively (depth={bit_depth}, "
            f"color={color_type})")
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = 1 + 3 * width
    if len(raw) != stride * height:
        raise ValueError("PNG scanline data length mismatch")
    lines = raw.reshape(height, stride)
    ftypes = lines[:, 0].astype(np.int64)
    if ftypes.max(initial=0) > 4:
        raise ValueError(f"invalid PNG filter type {int(ftypes.max())}")
    out = np.zeros((height, 3 * width), dtype=np.uint8)
    prev = np.zeros(3 * width, dtype=np.int64)
    for r in range(height):
        filt = lines[r, 1:].astype(np.int64)
        f = int(ftypes[r])
        if f == 0:
            row = filt
        elif f == 1:   # Sub: per-lane cumsum mod 256
            row = np.cumsum(filt.reshape(width, 3), axis=0).reshape(-1) % 256
        elif f == 2:   # Up
            row = (filt + prev) % 256
        elif f == 3:   # Average
            row = filt.copy()
            for x in range(width):
                left = row[3 * (x - 1):3 * x] if x else np.zeros(3, np.int64)
                s = 3 * x
                row[s:s + 3] = (filt[s:s + 3]
                                + (left + prev[s:s + 3]) // 2) % 256
        else:          # Paeth
            row = filt.copy()
            for x in range(width):
                s = 3 * x
                left = row[s - 3:s] if x else np.zeros(3, np.int64)
                ul = prev[s - 3:s] if x else np.zeros(3, np.int64)
                up = prev[s:s + 3]
                p = left + up - ul
                pa_, pb, pc_ = np.abs(p - left), np.abs(p - up), np.abs(p - ul)
                pred = np.where((pa_ <= pb) & (pa_ <= pc_), left,
                                np.where(pb <= pc_, up, ul))
                row[s:s + 3] = (filt[s:s + 3] + pred) % 256
        out[r] = row
        prev = row
    return width, height, bit_depth, color_type, int(ftypes.sum()), out.reshape(-1)


PNG_FEATURE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("media_type", pa.string()),
    ("width", pa.int64()),
    ("height", pa.int64()),
    ("bit_depth", pa.int64()),
    ("color_type", pa.int64()),
    ("filter_sum", pa.int64()),
    ("sum_r", pa.int64()),
    ("sum_g", pa.int64()),
    ("sum_b", pa.int64()),
])


class PngDecoder:
    """Actor-pool decode/feature stage for PNG payload columns — the
    stdlib-zlib twin of ``DecoderStub``/``AudioDecoder``. REALLY decodes
    ``image/png`` (RGB8; CRC-checked chunk walk, inflate, five-filter
    un-filtering) and emits integer channel sums plus the filter-type
    sum (exact-SQL-gateable); JPEG and other codec-library formats raise
    NotImplementedError — their codecs aren't in this container."""

    def __init__(self) -> None:
        pass  # real build: load libpng/turbojpeg handles once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media = batch.column("media_type").to_pylist()
        w_v, h_v, d_v, c_v, f_v = [], [], [], [], []
        r_v, g_v, b_v = [], [], []
        for mt, p in zip(media, payloads):
            if mt != PNG_MEDIA_TYPE:
                raise NotImplementedError(
                    f"no codec for {mt!r} in this environment "
                    f"(only {PNG_MEDIA_TYPE} decodes natively here)")
            w, h, depth, ctype_, fsum, px = decode_png(p)
            amp = px.astype(np.int64)
            w_v.append(w)
            h_v.append(h)
            d_v.append(depth)
            c_v.append(ctype_)
            f_v.append(fsum)
            r_v.append(int(amp[0::3].sum()))
            g_v.append(int(amp[1::3].sum()))
            b_v.append(int(amp[2::3].sum()))

        def _col(name):
            return one_array(batch.column(name))

        return pa.Table.from_arrays(
            [
                _col("doc_id"), _col("media_type"),
                pa.array(w_v, type=pa.int64()), pa.array(h_v, type=pa.int64()),
                pa.array(d_v, type=pa.int64()), pa.array(c_v, type=pa.int64()),
                pa.array(f_v, type=pa.int64()), pa.array(r_v, type=pa.int64()),
                pa.array(g_v, type=pa.int64()), pa.array(b_v, type=pa.int64()),
            ],
            schema=PNG_FEATURE_SCHEMA,
        )


# ---- BMP (24-bit, uncompressed) ---------------------------------------------

BMP_MEDIA_TYPE = "image/bmp"

BMP_FEATURE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("media_type", pa.string()),
    ("width", pa.int64()), ("height", pa.int64()),
    ("bpp", pa.int64()), ("row_pad", pa.int64()),
    ("sum_r", pa.int64()), ("sum_g", pa.int64()), ("sum_b", pa.int64()),
])


def make_bmp(width: int, height: int, pixels: np.ndarray) -> bytes:
    """Render an RGB8 pixel array (uint8, len == 3*w*h, RGB scan order
    top-down) as a real 24-bit BMP: BITMAPFILEHEADER + 40-byte
    BITMAPINFOHEADER, BGR byte order, rows stored BOTTOM-UP, each row
    padded to a 4-byte boundary — the three quirks every real BMP
    reader must honor."""
    import struct

    px = pixels.astype(np.uint8).reshape(height, width, 3)
    bgr = px[:, :, ::-1]               # RGB -> BGR
    pad = (4 - (width * 3) % 4) % 4
    rows = bytearray()
    for r in range(height - 1, -1, -1):  # bottom-up
        rows.extend(bgr[r].tobytes())
        rows.extend(b"\x00" * pad)
    data_off = 14 + 40
    size = data_off + len(rows)
    hdr = (b"BM" + struct.pack("<IHHI", size, 0, 0, data_off)
           + struct.pack("<IiiHHIIiiII", 40, width, height, 1, 24,
                         0, len(rows), 2835, 2835, 0, 0))
    return bytes(hdr) + bytes(rows)


def decode_bmp(data: bytes) -> tuple[int, int, int, int, np.ndarray]:
    """Parse a 24-bit uncompressed BMP with stdlib struct + numpy:
    signature, header offsets, BITMAPINFOHEADER validation, padded
    bottom-up BGR rows -> flat RGB8 top-down. Returns (width, height,
    bpp, row_pad, pixels)."""
    import struct

    if len(data) < 54 or data[:2] != b"BM":
        raise ValueError("not a BMP: bad signature or truncated header")
    data_off = struct.unpack_from("<I", data, 10)[0]
    (hsz, width, height, planes, bpp, comp) = struct.unpack_from(
        "<IiiHHI", data, 14)
    if hsz < 40:
        raise ValueError(f"unsupported BMP header size {hsz}")
    if planes != 1 or bpp != 24 or comp != 0:
        raise ValueError(
            f"unsupported BMP: planes={planes} bpp={bpp} compression={comp}"
            " (only uncompressed 24-bit decodes here)")
    top_down = height < 0
    height = abs(height)
    if width <= 0 or height <= 0:
        raise ValueError(f"bad BMP dimensions {width}x{height}")
    pad = (4 - (width * 3) % 4) % 4
    stride = width * 3 + pad
    need = data_off + stride * height
    if len(data) < need:
        raise ValueError(f"truncated BMP pixel array: {len(data)} < {need}")
    raw = np.frombuffer(data, dtype=np.uint8, count=stride * height,
                        offset=data_off).reshape(height, stride)
    bgr = raw[:, :width * 3].reshape(height, width, 3)
    if not top_down:
        bgr = bgr[::-1]
    return width, height, bpp, pad, bgr[:, :, ::-1].reshape(-1).copy()


def synth_bmp(doc_id: int) -> bytes:
    """Deterministic synthetic BMP per doc: width ``7 + doc_id % 6``
    (exercises every row-padding value 0-3), height ``5 + doc_id % 4``,
    RGB raster byte k is ``(doc_id*53 + k*17 + 3) % 256`` — closed
    forms the DuckDB oracle reproduces exactly."""
    w, h = 7 + doc_id % 6, 5 + doc_id % 4
    k = np.arange(3 * w * h, dtype=np.int64)
    return make_bmp(w, h, ((doc_id * 53 + k * 17 + 3) % 256))


class BmpDecoder:
    """Actor-pool decode/feature stage for BMP payload columns — the
    third real image codec beside PPM and PNG (stdlib struct + numpy;
    no codec library). Emits dimensions, the row padding the reader
    had to skip, and integer channel sums (exact-SQL-gateable)."""

    def __init__(self) -> None:
        pass  # real build: load decoder handles once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media = batch.column("media_type").to_pylist()
        w_v, h_v, d_v, p_v, r_v, g_v, b_v = [], [], [], [], [], [], []
        for mt, p in zip(media, payloads):
            if mt != BMP_MEDIA_TYPE:
                raise NotImplementedError(
                    f"no codec for {mt!r} in this environment "
                    f"(only {BMP_MEDIA_TYPE} decodes natively here)")
            w, h, bpp, pad, px = decode_bmp(p)
            amp = px.astype(np.int64)
            w_v.append(w)
            h_v.append(h)
            d_v.append(bpp)
            p_v.append(pad)
            r_v.append(int(amp[0::3].sum()))
            g_v.append(int(amp[1::3].sum()))
            b_v.append(int(amp[2::3].sum()))

        def _col(name):
            return one_array(batch.column(name))

        return pa.Table.from_arrays(
            [
                _col("doc_id"), _col("media_type"),
                pa.array(w_v, type=pa.int64()), pa.array(h_v, type=pa.int64()),
                pa.array(d_v, type=pa.int64()), pa.array(p_v, type=pa.int64()),
                pa.array(r_v, type=pa.int64()), pa.array(g_v, type=pa.int64()),
                pa.array(b_v, type=pa.int64()),
            ],
            schema=BMP_FEATURE_SCHEMA,
        )


# ---- GIF (87a, real LZW codec) ---------------------------------------------
# The fourth real image codec beside PPM/PNG/BMP: stdlib-only GIF87a
# reader with a full variable-width LSB-first LZW decompressor (dict
# growth, width bumps at 2^w, CLEAR/END handling, 12-bit cap) plus the
# matching greedy encoder used by the synthetic generator. Spec:
# GIF87a (CompuServe 1987) / GIF89a §§20-22. Conformance is pinned by
# a hand-packed bitstream fixture (one-pixel image) and growth-path
# round-trips in tests/test_multimodal.py — there is no codec library
# in this container to cross-check against, same caveat as PNG.

GIF_MEDIA_TYPE = "image/gif"

GIF_FEATURE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("media_type", pa.string()),
    ("width", pa.int64()), ("height", pa.int64()),
    ("palette_size", pa.int64()),
    ("sum_idx", pa.int64()),
    ("sum_r", pa.int64()), ("sum_g", pa.int64()), ("sum_b", pa.int64()),
])


def _lzw_encode(indices: np.ndarray, min_code_size: int) -> bytes:
    """Greedy GIF-LZW compress of palette indices: variable-width codes
    starting at min_code_size+1 bits, LSB-first packing, CLEAR emitted
    first, dict entries (prefix_code, symbol) -> next code, width bump
    when the largest assigned code reaches 2^width, hard 12-bit cap
    (emit CLEAR and reset — the spec's table-full recovery)."""
    clear = 1 << min_code_size
    end = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int) -> None:
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    width = min_code_size + 1
    table: dict = {}
    next_code = end + 1
    emit(clear, width)
    prefix = -1
    for sym in map(int, indices):
        if prefix < 0:
            prefix = sym
            continue
        key = (prefix, sym)
        if key in table:
            prefix = table[key]
            continue
        emit(prefix, width)
        table[key] = next_code
        next_code += 1
        if next_code == (1 << width) + 1 and width < 12:
            width += 1
        if next_code > (1 << 12):
            emit(clear, width)
            table.clear()
            next_code = end + 1
            width = min_code_size + 1
        prefix = sym
    if prefix >= 0:
        emit(prefix, width)
    emit(end, width)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _lzw_decode(data: bytes, min_code_size: int, n_expected: int) -> np.ndarray:
    """GIF-LZW decompress to palette indices. Handles the decoder-side
    dict (entry added per code AFTER the first following a CLEAR, the
    one-behind pairing with the encoder), the c == next_code
    prev+first special case, width bump when the table fills 2^width,
    and deferred CLEARs. Raises ValueError on corrupt streams."""
    clear = 1 << min_code_size
    end = clear + 1
    out = np.empty(n_expected, dtype=np.int64)
    n_out = 0
    acc = 0
    nbits = 0
    pos = 0
    width = min_code_size + 1
    table: list = []
    prev: list | None = None

    def reset() -> None:
        nonlocal table, width, prev
        table = [[i] for i in range(clear)] + [None, None]
        width = min_code_size + 1
        prev = None

    reset()
    while True:
        while nbits < width:
            if pos >= len(data):
                raise ValueError("LZW stream truncated before END code")
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << width) - 1)
        acc >>= width
        nbits -= width
        if code == clear:
            reset()
            continue
        if code == end:
            break
        if prev is None:
            if code >= clear:
                raise ValueError(f"first LZW code {code} not a literal")
            s = table[code]
        elif code < len(table):
            s = table[code]
        elif code == len(table):
            s = prev + prev[:1]
        else:
            raise ValueError(f"LZW code {code} beyond table {len(table)}")
        if n_out + len(s) > n_expected:
            raise ValueError("LZW output exceeds expected pixel count")
        out[n_out:n_out + len(s)] = s
        n_out += len(s)
        if prev is not None and len(table) < (1 << 12):
            table.append(prev + s[:1])
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = s
    if n_out != n_expected:
        raise ValueError(f"LZW decoded {n_out} pixels, expected {n_expected}")
    return out


def make_gif(width: int, height: int, palette: np.ndarray,
             indices: np.ndarray) -> bytes:
    """Render palette indices as a real GIF87a: logical screen
    descriptor with a global color table (power-of-two padded), one
    image descriptor, LZW-compressed pixel data in <=255-byte
    sub-blocks, trailer."""
    import struct

    pal = palette.astype(np.uint8).reshape(-1, 3)
    n = len(pal)
    bits = max(1, int(n - 1).bit_length())
    padded = np.zeros(((1 << bits), 3), dtype=np.uint8)
    padded[:n] = pal
    mcs = max(2, bits)
    lzw = _lzw_encode(np.asarray(indices, dtype=np.int64), mcs)
    out = bytearray(b"GIF87a")
    out += struct.pack("<HHBBB", width, height,
                       0x80 | ((bits - 1) & 7), 0, 0)
    out += padded.tobytes()
    out += struct.pack("<BHHHHB", 0x2C, 0, 0, width, height, 0)
    out.append(mcs)
    for s in range(0, len(lzw), 255):
        block = lzw[s:s + 255]
        out.append(len(block))
        out += block
    out.append(0)      # block terminator
    out.append(0x3B)   # trailer
    return bytes(out)


def decode_gif(data: bytes) -> tuple[int, int, int, np.ndarray, np.ndarray]:
    """Parse a GIF87a/89a with stdlib struct + the LZW decompressor:
    header, logical screen descriptor, global/local color table,
    extension-block skipping, sub-block reassembly. Returns (width,
    height, palette_size, palette (n,3) uint8, indices). Raises
    ValueError on malformed input and NotImplementedError for
    interlaced images (nothing in this environment writes them)."""
    import struct

    if len(data) < 13 or data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF: bad signature or truncated header")
    sw, sh, packed, _bg, _ar = struct.unpack_from("<HHBBB", data, 6)
    pos = 13
    gct = None
    if packed & 0x80:
        gsz = 2 << (packed & 7)
        if pos + 3 * gsz > len(data):
            raise ValueError("truncated global color table")
        gct = np.frombuffer(data, np.uint8, 3 * gsz, pos).reshape(gsz, 3)
        pos += 3 * gsz
    while pos < len(data):
        b = data[pos]
        pos += 1
        if b == 0x3B:
            raise ValueError("GIF trailer before any image data")
        if b == 0x21:                       # extension: label + sub-blocks
            pos += 1
            while pos < len(data) and data[pos]:
                pos += 1 + data[pos]
            pos += 1
            continue
        if b != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b:02x}")
        left, top, w, h, ipacked = struct.unpack_from("<HHHHB", data, pos)
        pos += 9
        if ipacked & 0x40:
            raise NotImplementedError("interlaced GIF not supported")
        pal = gct
        if ipacked & 0x80:
            lsz = 2 << (ipacked & 7)
            pal = np.frombuffer(data, np.uint8, 3 * lsz, pos).reshape(lsz, 3)
            pos += 3 * lsz
        if pal is None:
            raise ValueError("GIF image with no color table")
        if w <= 0 or h <= 0 or w > sw or h > sh:
            raise ValueError(f"bad GIF image dimensions {w}x{h} in {sw}x{sh}")
        mcs = data[pos]
        pos += 1
        chunks = []
        while True:
            if pos >= len(data):
                raise ValueError("truncated GIF sub-blocks")
            ln = data[pos]
            pos += 1
            if ln == 0:
                break
            chunks.append(data[pos:pos + ln])
            pos += ln
        idx = _lzw_decode(b"".join(chunks), mcs, w * h)
        if idx.max(initial=0) >= len(pal):
            raise ValueError("palette index out of range")
        return w, h, len(pal), pal.copy(), idx
    raise ValueError("no image descriptor in GIF")


def synth_gif(doc_id: int) -> bytes:
    """Deterministic synthetic GIF per doc: width ``6 + doc_id % 5``,
    height ``4 + doc_id % 3``, an 8-color palette with channel closed
    forms (r=(j*37+5)%256, g=(j*59+11)%256, b=(j*83+23)%256) and pixel
    index k = (doc_id*31 + k*7 + 1) % 8 — every feature the decoder
    emits is a closed form the DuckDB oracle reproduces exactly."""
    w, h = 6 + doc_id % 5, 4 + doc_id % 3
    j = np.arange(8, dtype=np.int64)
    pal = np.stack([(j * 37 + 5) % 256, (j * 59 + 11) % 256,
                    (j * 83 + 23) % 256], axis=1)
    k = np.arange(w * h, dtype=np.int64)
    return make_gif(w, h, pal, (doc_id * 31 + k * 7 + 1) % 8)


class GifDecoder:
    """Actor-pool decode/feature stage for GIF payload columns — the
    fourth real image codec (stdlib struct + a full variable-width LZW
    decompressor). Emits dimensions, palette size, the palette-index
    sum (pins the LZW stream itself) and RGB channel sums through the
    palette (pins the color-table walk)."""

    def __init__(self) -> None:
        pass  # real build: load decoder handles once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media = batch.column("media_type").to_pylist()
        w_v, h_v, n_v, i_v, r_v, g_v, b_v = [], [], [], [], [], [], []
        for mt, p in zip(media, payloads):
            if mt != GIF_MEDIA_TYPE:
                raise NotImplementedError(
                    f"no codec for {mt!r} in this environment "
                    f"(only {GIF_MEDIA_TYPE} decodes natively here)")
            w, h, npal, pal, idx = decode_gif(p)
            rgb = pal[idx].astype(np.int64)
            w_v.append(w)
            h_v.append(h)
            n_v.append(npal)
            i_v.append(int(idx.sum()))
            r_v.append(int(rgb[:, 0].sum()))
            g_v.append(int(rgb[:, 1].sum()))
            b_v.append(int(rgb[:, 2].sum()))

        def _col(name):
            return one_array(batch.column(name))

        return pa.Table.from_arrays(
            [
                _col("doc_id"), _col("media_type"),
                pa.array(w_v, type=pa.int64()), pa.array(h_v, type=pa.int64()),
                pa.array(n_v, type=pa.int64()), pa.array(i_v, type=pa.int64()),
                pa.array(r_v, type=pa.int64()), pa.array(g_v, type=pa.int64()),
                pa.array(b_v, type=pa.int64()),
            ],
            schema=GIF_FEATURE_SCHEMA,
        )


# ---- QOI (Quite OK Image, the 2021 spec at qoiformat.org) ------------------
QOI_MEDIA_TYPE = "image/qoi"

QOI_FEATURE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("media_type", pa.string()),
    ("width", pa.int64()), ("height", pa.int64()),
    ("channels", pa.int64()),
    ("sum_r", pa.int64()), ("sum_g", pa.int64()), ("sum_b", pa.int64()),
])


def make_qoi(width: int, height: int, pixels: np.ndarray) -> bytes:
    """REAL QOI encoder (RGB, channels=3): the spec's op ladder — RUN,
    then INDEX (hash table of 64 seen colors), then DIFF (2-bit
    per-channel deltas), then LUMA (6-bit green delta + 4-bit
    red/blue-minus-green), else a full RGB op. Used by the synthesizer;
    the deterministic pixel generators below naturally exercise every
    op type (asserted in tests)."""
    import struct

    out = [b"qoif", struct.pack(">IIBB", width, height, 3, 0)]
    table = [(0, 0, 0, 0)] * 64
    prev = (0, 0, 0, 255)
    run = 0
    for r, g, b in pixels.astype(np.int64):
        px = (int(r), int(g), int(b), 255)
        if px == prev:
            run += 1
            if run == 62:
                out.append(bytes([0xC0 | (run - 1)]))
                run = 0
            continue
        if run:
            out.append(bytes([0xC0 | (run - 1)]))
            run = 0
        hidx = (px[0] * 3 + px[1] * 5 + px[2] * 7 + px[3] * 11) % 64
        if table[hidx] == px:
            out.append(bytes([hidx]))
        else:
            table[hidx] = px
            dr = (px[0] - prev[0] + 128) % 256 - 128
            dg = (px[1] - prev[1] + 128) % 256 - 128
            db = (px[2] - prev[2] + 128) % 256 - 128
            if -2 <= dr <= 1 and -2 <= dg <= 1 and -2 <= db <= 1:
                out.append(bytes([0x40 | ((dr + 2) << 4)
                                  | ((dg + 2) << 2) | (db + 2)]))
            elif (-32 <= dg <= 31 and -8 <= dr - dg <= 7
                  and -8 <= db - dg <= 7):
                out.append(bytes([0x80 | (dg + 32),
                                  ((dr - dg + 8) << 4) | (db - dg + 8)]))
            else:
                out.append(bytes([0xFE, px[0], px[1], px[2]]))
        prev = px
    if run:
        out.append(bytes([0xC0 | (run - 1)]))
    out.append(b"\x00" * 7 + b"\x01")
    return b"".join(out)


def synth_qoi(doc_id: int) -> bytes:
    """Deterministic QOI per doc: width ``8 + doc_id % 5``, height
    ``6 + doc_id % 3``; pixel k belongs to value-group j = k // 4
    (4-pixel stretches -> RUN ops); every 7th group is a fixed anchor
    color (10, 200, 60) (revisits -> INDEX ops); other groups step the
    channels by (5, 3, 1) per group (-> LUMA ops) from doc-seeded
    bases; each group's LAST pixel ticks blue by +1 (-> DIFF ops); and
    anchor re-entries force full RGB ops. All channel values are closed
    forms the SQL oracle mirrors."""
    w, h = 8 + doc_id % 5, 6 + doc_id % 3
    k = np.arange(w * h, dtype=np.int64)
    j = k // 4
    anchor = (j % 7) == 0
    r = np.where(anchor, 10, (doc_id * 11 + j * 5) % 256)
    g = np.where(anchor, 200, (doc_id * 23 + j * 3) % 256)
    b = (np.where(anchor, 60, (doc_id * 5 + j) % 256)
         + (k % 4 == 3)) % 256
    return make_qoi(w, h, np.stack([r, g, b], axis=1))


def decode_qoi(data: bytes) -> tuple[int, int, int, np.ndarray]:
    """REAL QOI decoder (full spec: RGB/RGBA/INDEX/DIFF/LUMA/RUN ops,
    64-entry color hash table, end marker). Sequential by nature (like
    the GIF LZW walk) — runs per image inside the actor pool. Returns
    (width, height, channels, pixels[n,4])."""
    import struct

    if data[:4] != b"qoif" or len(data) < 22:
        raise ValueError("not a QOI stream")
    w, h, channels, colorspace = struct.unpack(">IIBB", data[4:14])
    if channels not in (3, 4) or colorspace > 1:
        raise ValueError("malformed QOI header")
    n = w * h
    px = np.zeros((n, 4), dtype=np.uint8)
    table = np.zeros((64, 4), dtype=np.int64)
    r, g, b, a = 0, 0, 0, 255
    i, pos = 14, 0
    end = len(data) - 8
    while pos < n:
        if i >= end:
            raise ValueError("truncated QOI stream")
        op = data[i]
        i += 1
        if op == 0xFE:  # RGB
            r, g, b = data[i], data[i + 1], data[i + 2]
            i += 3
        elif op == 0xFF:  # RGBA
            r, g, b, a = data[i], data[i + 1], data[i + 2], data[i + 3]
            i += 4
        elif op >> 6 == 0:  # INDEX
            r, g, b, a = table[op]
        elif op >> 6 == 1:  # DIFF
            r = (r + ((op >> 4) & 3) - 2) % 256
            g = (g + ((op >> 2) & 3) - 2) % 256
            b = (b + (op & 3) - 2) % 256
        elif op >> 6 == 2:  # LUMA
            dg = (op & 0x3F) - 32
            b2 = data[i]
            i += 1
            r = (r + dg + ((b2 >> 4) & 0x0F) - 8) % 256
            g = (g + dg) % 256
            b = (b + dg + (b2 & 0x0F) - 8) % 256
        else:  # RUN
            run = (op & 0x3F) + 1
            if pos + run > n:
                raise ValueError("QOI run past image end")
            px[pos:pos + run] = (r, g, b, a)
            pos += run
            continue
        table[(r * 3 + g * 5 + b * 7 + a * 11) % 64] = (r, g, b, a)
        px[pos] = (r, g, b, a)
        pos += 1
    if data[-8:] != b"\x00" * 7 + b"\x01":
        raise ValueError("missing QOI end marker")
    return int(w), int(h), int(channels), px


class QoiDecoder:
    """Actor-pool decode/feature stage for QOI payload columns — the
    fifth real image codec (run-length + hash-table + delta coded).
    Emits dimensions, channel count and RGB channel sums."""

    def __init__(self) -> None:
        pass  # real build: load decoder handles once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        media = batch.column("media_type").to_pylist()
        w_v, h_v, c_v, r_v, g_v, b_v = [], [], [], [], [], []
        for mt, p in zip(media, payloads):
            if mt != QOI_MEDIA_TYPE:
                raise NotImplementedError(
                    f"no codec for {mt!r} in this environment "
                    f"(only {QOI_MEDIA_TYPE} decodes natively here)")
            w, h, ch, px = decode_qoi(p)
            s = px.astype(np.int64).sum(axis=0)
            w_v.append(w)
            h_v.append(h)
            c_v.append(ch)
            r_v.append(int(s[0]))
            g_v.append(int(s[1]))
            b_v.append(int(s[2]))

        def _col(name):
            return one_array(batch.column(name))

        return pa.Table.from_arrays(
            [
                _col("doc_id"), _col("media_type"),
                pa.array(w_v, type=pa.int64()), pa.array(h_v, type=pa.int64()),
                pa.array(c_v, type=pa.int64()),
                pa.array(r_v, type=pa.int64()), pa.array(g_v, type=pa.int64()),
                pa.array(b_v, type=pa.int64()),
            ],
            schema=QOI_FEATURE_SCHEMA,
        )
