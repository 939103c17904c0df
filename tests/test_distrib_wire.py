"""Wire codec of the distributed tier.

Everything here is single-process: frames over a socketpair, job/result
JSON round trips and canonical cache-key JSON.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.core.result import ExtensionResult, SeedAlignmentResult
from repro.distrib.wire import (
    cache_key_from_json,
    cache_key_to_json,
    job_from_wire,
    job_to_wire,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
)
from repro.engine import get_engine
from repro.errors import ServiceError
from repro.service.cache import job_cache_key


def _sample_result(band_widths: bool = False) -> SeedAlignmentResult:
    trace = np.array([3, 5, 7], dtype=np.int64) if band_widths else None
    left = ExtensionResult(11, 40, 42, 9, 310, terminated_early=True,
                           band_widths=trace)
    right = ExtensionResult(25, 88, 90, 17, 701, terminated_early=False,
                            band_widths=trace)
    return SeedAlignmentResult(
        score=53,
        left=left,
        right=right,
        seed_score=17,
        query_begin=4,
        query_end=132,
        target_begin=6,
        target_end=136,
    )


class TestJsonCodec:
    def test_job_round_trip(self, small_jobs):
        for job in small_jobs:
            back = job_from_wire(job_to_wire(job))
            assert np.array_equal(back.query, job.query)
            assert np.array_equal(back.target, job.target)
            assert back.seed == job.seed
            assert back.pair_id == job.pair_id

    def test_result_round_trip(self):
        result = _sample_result()
        back = result_from_wire(result_to_wire(result))
        assert back == result

    def test_result_round_trip_preserves_band_widths(self):
        result = _sample_result(band_widths=True)
        back = result_from_wire(result_to_wire(result))
        assert back.score == result.score
        assert np.array_equal(back.left.band_widths, result.left.band_widths)
        assert np.array_equal(back.right.band_widths, result.right.band_widths)

    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
    def test_real_alignments_round_trip(self, small_jobs, scoring, trace):
        engine = get_engine("batched", scoring=scoring, xdrop=30, trace=trace)
        for result in engine.align_batch(small_jobs).results:
            back = result_from_wire(result_to_wire(result))
            assert back.score == result.score
            for got, want in ((back.left, result.left), (back.right, result.right)):
                assert (got.best_score, got.query_end, got.target_end) == (
                    want.best_score, want.query_end, want.target_end
                )
                assert (got.anti_diagonals, got.cells_computed) == (
                    want.anti_diagonals, want.cells_computed
                )
                assert got.terminated_early == want.terminated_early
                if trace:
                    assert np.array_equal(got.band_widths, want.band_widths)
                else:
                    assert got.band_widths is None

    def test_cache_key_round_trip(self, small_jobs, scoring):
        key = job_cache_key(small_jobs[0], scoring, 37)
        text = cache_key_to_json(key)
        assert cache_key_from_json(text) == key
        # Canonical: equal keys serialise to byte-identical JSON.
        assert cache_key_to_json(cache_key_from_json(text)) == text


class TestFrames:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "jobs": [1, 2, 3], "text": "αβγ"}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_close_raises(self):
        a, b = socket.socketpair()
        try:
            # A length prefix promising bytes that never arrive.
            a.sendall(b"\x00\x00\x00\x10partial")
            a.close()
            with pytest.raises(ServiceError):
                recv_frame(b)
        finally:
            b.close()
