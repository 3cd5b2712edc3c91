"""Depth-quality probing: real disparities behind the analytic serving stack.

The serving layers (:class:`~repro.pipeline.engine.StreamEngine`, the
cluster engine) are analytic — they simulate *latency* without ever
computing a disparity map.  That is exactly right for capacity and
QoS questions, but the paper's whole argument is a quality/speed
trade: ISM propagates correspondences to cut compute *with minimal
accuracy loss* (Sec. 3), and a scheduler that drops or re-keys frames
(``shed``) changes which frames get full inference.  A latency win
reported without its accuracy cost is only half the story.

:class:`QualityProbe` closes that gap.  For (a sample of) the served
streams that carry pixel data, it replays the *exact* per-frame
decisions the discrete-event simulation made — the
:attr:`~repro.pipeline.costing.ServeOutcome.dispositions` record —
through the real pipeline:

* ``key`` frames run the full matcher (``bm`` / ``census`` / ``sgm``)
  standing in for the stereo DNN;
* ``nonkey`` frames run the ISM propagation path — optical flow from
  the key frame plus :func:`~repro.stereo.block_matching.
  guided_block_match` refinement;
* ``drop``-ped frames produce no new disparity, so they are scored
  against the **last served map** — the stale depth a downstream
  consumer would actually be holding when the scheduler shed the
  frame.

Each frame is scored against the procedural dataset's exact ground
truth with the paper's metrics (bad-pixel rate and mean end-point
error, :mod:`repro.stereo.metrics`), and the scores flow up through
:class:`~repro.pipeline.costing.ServeOutcome` into the engine and
cluster reports.  ``docs/quality.md`` is the guide.

>>> from repro.pipeline import QualityProbe, sceneflow_stream
>>> probe = QualityProbe(matcher="bm", max_disp=16)
>>> quality = probe.score_plan(
...     sceneflow_stream(seed=3, size=(32, 48), n_frames=3,
...                      max_disp=16, pw=3))
>>> [f.disposition for f in quality.frames]
['key', 'nonkey', 'nonkey']
>>> 0.0 <= quality.bad_pixel_rate <= 1.0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.ism import ISM, ISMConfig
from repro.parallel import TileExecutor
from repro.pipeline.costing import ServeOutcome, plan_keys
from repro.pipeline.stream import FrameStream
from repro.stereo.metrics import end_point_error, three_pixel_error

__all__ = [
    "FrameQuality",
    "StreamQuality",
    "QualityProbe",
    "available_matchers",
]

#: key-frame matchers the probe can stand in for the stereo DNN; the
#: names dispatch through :meth:`repro.parallel.TileExecutor.kernel`
#: (the "guided" kernel is the non-key refinement, not a key matcher)
_MATCHER_NAMES = ("bm", "census", "sgm")


def available_matchers() -> tuple[str, ...]:
    """Sorted names of the key-frame matchers the probe supports.

    >>> available_matchers()
    ('bm', 'census', 'sgm')
    """
    return _MATCHER_NAMES


@dataclass(frozen=True)
class FrameQuality:
    """Depth accuracy of one offered frame.

    ``disposition`` is what the scheduler did with the frame (``key``
    / ``nonkey`` / ``drop``); a dropped frame's scores measure the
    *staleness* of the last served disparity map against this frame's
    ground truth.  ``bad_pixel_rate`` is the paper's three-pixel-error
    fraction in ``[0, 1]``; ``epe_px`` the mean absolute disparity
    error in pixels.
    """

    index: int
    disposition: str
    bad_pixel_rate: float
    epe_px: float


@dataclass(frozen=True)
class StreamQuality:
    """Depth-accuracy samples of one probed stream.

    The aggregate properties average over every scored frame —
    including dropped frames scored stale, because that is the depth
    the deployment actually delivered.  The per-disposition
    breakdowns (:attr:`key_epe_px` / :attr:`nonkey_epe_px` /
    :attr:`stale_epe_px`) attribute the loss: key frames bound the
    matcher's own accuracy, non-key frames add the ISM propagation
    cost, stale frames the scheduler's shedding cost.
    """

    stream: str
    matcher: str
    frames: tuple[FrameQuality, ...]

    def _over(
        self, attr: str, dispositions: tuple[str, ...] | None = None
    ) -> float | None:
        vals = [
            getattr(f, attr)
            for f in self.frames
            if dispositions is None or f.disposition in dispositions
        ]
        return float(np.mean(vals)) if vals else None

    @property
    def n_frames(self) -> int:
        """Frames scored (served and stale)."""
        return len(self.frames)

    @property
    def n_stale(self) -> int:
        """Dropped frames, scored against the last served map."""
        return sum(f.disposition == "drop" for f in self.frames)

    @property
    def bad_pixel_rate(self) -> float:
        """Mean three-pixel-error fraction over every scored frame."""
        return self._over("bad_pixel_rate") or 0.0

    @property
    def epe_px(self) -> float:
        """Mean end-point error (pixels) over every scored frame."""
        return self._over("epe_px") or 0.0

    @property
    def key_epe_px(self) -> float | None:
        """Mean EPE of key frames (``None`` if none scored)."""
        return self._over("epe_px", ("key",))

    @property
    def nonkey_epe_px(self) -> float | None:
        """Mean EPE of ISM non-key frames (``None`` if none scored)."""
        return self._over("epe_px", ("nonkey",))

    @property
    def stale_epe_px(self) -> float | None:
        """Mean EPE of dropped frames (``None`` if nothing dropped)."""
        return self._over("epe_px", ("drop",))


class QualityProbe:
    """Scores served streams by running the real stereo pipeline.

    Parameters
    ----------
    matcher:
        Key-frame matcher standing in for the stereo DNN — one of
        :func:`available_matchers` (``bm`` SAD block matching,
        ``census`` Hamming matching, ``sgm`` semi-global matching).
    max_disp:
        Disparity search range of the key-frame matcher; match it to
        the stream's dataset (the factories default to 48).
    ism:
        :class:`~repro.core.ism.ISMConfig` for the non-key propagation
        path; a stream's own :attr:`~repro.pipeline.stream.FrameStream.
        ism` config takes precedence.  The propagation *window* plays
        no role here — key decisions are replayed, never planned.
    max_frames:
        Score only the first ``max_frames`` offered frames of each
        probed stream (``None`` scores the whole stream).
    sample:
        Fraction of the pixel-carrying streams to probe, in
        ``(0, 1]``; sub-sampling picks streams deterministically from
        ``seed``.  Cost-only streams are never probed.
    workers:
        Worker-pool size for the kernels the probe executes, an
        integer >= 1.  ``1`` (the default) runs single-core; larger
        values run every key matcher and every non-key guided search
        through a :class:`~repro.parallel.TileExecutor`, which splits
        frames into one halo-padded row band per worker and fans them
        across a pool.  The scores are bit-identical either way
        (pinned by tests) — only the wall-clock changes.
    precision:
        Cost-volume dtype for the executed kernels (``"float64"``
        default, ``"float32"`` halves kernel memory traffic).
    pool:
        ``"process"`` (default) or ``"thread"`` worker pool, when
        ``workers > 1``.

    >>> QualityProbe(matcher="sgm").matcher_name
    'sgm'
    >>> QualityProbe(matcher="bm", workers=4).executor.workers
    4
    >>> QualityProbe(matcher="orb")
    Traceback (most recent call last):
        ...
    ValueError: unknown matcher 'orb'; choose from ('bm', 'census', 'sgm')
    """

    def __init__(
        self,
        matcher: str = "bm",
        max_disp: int = 48,
        ism: ISMConfig | None = None,
        max_frames: int | None = None,
        sample: float = 1.0,
        seed: int = 0,
        workers: int = 1,
        precision: str = "float64",
        pool: str = "process",
    ) -> None:
        if matcher not in _MATCHER_NAMES:
            raise ValueError(
                f"unknown matcher {matcher!r}; choose from {available_matchers()}"
            )
        if max_disp < 1:
            raise ValueError("max_disp must be >= 1")
        if max_frames is not None and max_frames < 1:
            raise ValueError("max_frames must be >= 1 (or None)")
        if not 0.0 < sample <= 1.0:
            raise ValueError("sample must be in (0, 1]")
        self.matcher_name = matcher
        #: tiled kernel executor every probed frame runs through;
        #: :meth:`close` (or using the probe as a context manager)
        #: releases its worker processes
        self.executor = TileExecutor(
            workers=workers,
            pool=pool,
            precision=precision,
        )
        self.matcher = self.executor.kernel(matcher)
        self.max_disp = max_disp
        self.ism = ism or ISMConfig()
        self.max_frames = max_frames
        self.sample = sample
        self.seed = seed

    def __repr__(self) -> str:
        return (
            f"QualityProbe(matcher={self.matcher_name!r}, "
            f"max_disp={self.max_disp}, sample={self.sample}, "
            f"workers={self.executor.workers})"
        )

    def close(self) -> None:
        """Release the executor's worker processes (idempotent).

        Only relevant for ``workers > 1`` with a process pool; the
        pool is spawned lazily on the first multi-band kernel call
        and would otherwise live until interpreter exit.
        """
        self.executor.close()

    def __enter__(self) -> "QualityProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # scoring one stream
    # ------------------------------------------------------------------
    def score_stream(
        self, stream: FrameStream, dispositions: Sequence[str]
    ) -> StreamQuality:
        """Replay ``dispositions`` over ``stream``'s pixels and score.

        ``dispositions`` is the per-frame record a scheduler produced
        (:attr:`~repro.pipeline.costing.ServeOutcome.dispositions`):
        ``key`` runs the full matcher, ``nonkey`` the ISM propagation
        path, ``drop`` scores the last served map against this frame's
        ground truth.  Two serve-loop invariants are enforced rather
        than silently mis-scored: the first entry must be ``key``
        (there is nothing to propagate or hold before the first key
        frame), and the first served frame after a ``drop`` must be
        ``key`` (the drop broke the ISM chain — propagating across
        the gap would score flow the pipeline never ran).

        >>> from repro.pipeline import sceneflow_stream
        >>> probe = QualityProbe(matcher="bm", max_disp=16)
        >>> q = probe.score_stream(
        ...     sceneflow_stream(seed=3, size=(32, 48), n_frames=3,
        ...                      max_disp=16),
        ...     ["key", "nonkey", "drop"])
        >>> q.n_frames, q.n_stale
        (3, 1)
        """
        config = stream.ism or self.ism
        # the whole non-key path runs through the executor: tiled
        # guided refinement, and Farneback flow split by stream at
        # workers > 1 (bit-identical to the single-core path, so
        # scores replay byte-identically across worker configurations)
        ism = ISM(
            lambda f: self.matcher(f.left, f.right, self.max_disp),
            config=config,
            refiner=self.executor.kernel("guided"),
            flow=self.executor,
        )
        records: list[FrameQuality] = []
        last_disp: np.ndarray | None = None
        chain_broken = False
        for index, (frame, what) in enumerate(zip(stream.frames(), dispositions)):
            if self.max_frames is not None and index >= self.max_frames:
                break
            if what == "drop":
                if last_disp is None:
                    raise ValueError(
                        f"stream {stream.name!r} dropped frame {index} "
                        "before any served frame; dispositions must "
                        "start with a key frame"
                    )
                chain_broken = True
                disp = last_disp
            else:
                if chain_broken and what != "key":
                    raise ValueError(
                        f"stream {stream.name!r} serves a non-key frame "
                        f"{index} right after a drop; a drop breaks the "
                        "ISM chain, so the next served frame must be key"
                    )
                chain_broken = False
                disp, _ = ism.step(frame, is_key=(what == "key"))
                last_disp = disp
            records.append(
                FrameQuality(
                    index=index,
                    disposition=what,
                    bad_pixel_rate=three_pixel_error(disp, frame.disparity),
                    epe_px=end_point_error(disp, frame.disparity),
                )
            )
        return StreamQuality(
            stream=stream.name,
            matcher=self.matcher_name,
            frames=tuple(records),
        )

    def score_plan(
        self, stream: FrameStream, supports_ism: bool = True
    ) -> StreamQuality:
        """Score a stream under its *planned* key schedule (no engine).

        Builds the dispositions from :func:`~repro.pipeline.costing.
        plan_keys` — every frame served, keys where the stream's
        policy puts them — which is what any non-shedding scheduler
        serves on a backend that keeps up.  This is the entry point
        for key-frame-policy (PW) sensitivity studies.
        """
        dispositions = [
            "key" if k else "nonkey" for k in plan_keys(stream, supports_ism)
        ]
        return self.score_stream(stream, dispositions)

    # ------------------------------------------------------------------
    # scoring a serve outcome
    # ------------------------------------------------------------------
    def select_streams(self, streams: Sequence[FrameStream]) -> list[int]:
        """Indices of the streams this probe will score.

        Only pixel-carrying streams are eligible; ``sample`` then
        sub-samples them deterministically (seeded, at least one).
        """
        eligible = [i for i, s in enumerate(streams) if s.has_pixels]
        if self.sample >= 1.0 or len(eligible) <= 1:
            return eligible
        k = max(1, round(self.sample * len(eligible)))
        rng = np.random.default_rng(self.seed)
        chosen = rng.choice(len(eligible), size=k, replace=False)
        return sorted(eligible[i] for i in chosen)

    def score_streams(
        self, streams: Sequence[FrameStream], outcome: ServeOutcome
    ) -> tuple[StreamQuality | None, ...]:
        """Per-stream quality for one serve outcome (``None`` = unprobed).

        The result aligns with ``streams``; entries are ``None`` for
        cost-only streams and streams the sampler skipped.
        """
        if len(outcome.dispositions) != len(streams):
            raise ValueError(
                "outcome carries no per-frame dispositions for these "
                "streams; serve them with a registered scheduler first"
            )
        chosen = set(self.select_streams(streams))
        return tuple(
            self.score_stream(s, outcome.dispositions[i])
            if i in chosen
            else None
            for i, s in enumerate(streams)
        )
