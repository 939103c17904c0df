/*
 * C port of repro.core.xdrop.xdrop_extend_reference, the scalar X-drop
 * oracle behind the `reference` engine.  It follows the Python loop line by
 * line (same band derivation, pruning, trimming and buffer clearing) so it
 * returns the same best score, end cell, anti-diagonal count, cell count
 * and early-termination flag, only faster.  The benchmark checks every
 * engine result against it and replays a sample through the Python
 * reference engine to prove the two agree.
 *
 * Build: see the Makefile next to this file.
 */
#include <stdint.h>
#include <stdlib.h>

#define NEG_INF (INT64_MIN / 4)

/* out[0..5] = best, query_end, target_end, anti_diagonals, cells, terminated */
static int extend_one(const uint8_t *q, int64_t m, const uint8_t *t, int64_t n,
                      int64_t match, int64_t mismatch, int64_t gap,
                      int64_t xdrop, int64_t *out)
{
    int64_t size = m + 2;
    int64_t *buf = malloc(3 * size * sizeof(int64_t));
    if (buf == NULL)
        return -1;
    for (int64_t i = 0; i < 3 * size; i++)
        buf[i] = NEG_INF;
    int64_t *prev2 = buf, *prev = buf + size, *cur = buf + 2 * size, *tmp;

    prev[0] = 0;
    int64_t prev2_lo = 0, prev2_hi = -1, prev_lo = 0, prev_hi = 0;
    int64_t best = 0, best_i = 0, best_j = 0;
    int64_t cells = 1, anti_diagonals = 1, terminated = 0;

    for (int64_t d = 1; d <= m + n; d++) {
        int64_t lo = d - n > 0 ? d - n : 0;
        int64_t hi = d < m ? d : m;
        int64_t reach_lo = prev_lo, reach_hi = prev_hi + 1;
        if (prev2_hi >= prev2_lo) {
            if (prev2_lo + 1 < reach_lo)
                reach_lo = prev2_lo + 1;
            if (prev2_hi + 1 > reach_hi)
                reach_hi = prev2_hi + 1;
        }
        if (reach_lo > lo)
            lo = reach_lo;
        if (reach_hi < hi)
            hi = reach_hi;
        if (lo > hi) {
            terminated = 1;
            break;
        }

        int64_t cutoff = best - xdrop;
        int64_t row_best = NEG_INF, row_best_i = -1;
        for (int64_t i = lo; i <= hi; i++) {
            int64_t j = d - i;
            int64_t score = NEG_INF;
            if (i >= 1 && j >= 1) {
                int64_t diag = prev2[i - 1];
                if (diag > NEG_INF) {
                    if (q[i - 1] == t[j - 1] && q[i - 1] != 4)
                        score = diag + match;
                    else
                        score = diag + mismatch;
                }
            }
            if (i >= 1) {
                int64_t up = prev[i - 1];
                if (up > NEG_INF && up + gap > score)
                    score = up + gap;
            }
            if (j >= 1) {
                int64_t left = prev[i];
                if (left > NEG_INF && left + gap > score)
                    score = left + gap;
            }
            if (score < cutoff)
                score = NEG_INF;
            cur[i] = score;
            if (score > row_best) {
                row_best = score;
                row_best_i = i;
            }
        }
        cells += hi - lo + 1;
        anti_diagonals += 1;
        if (row_best <= NEG_INF) {
            terminated = 1;
            break;
        }

        int64_t new_lo = lo, new_hi = hi;
        while (new_lo <= new_hi && cur[new_lo] == NEG_INF)
            new_lo++;
        while (new_hi >= new_lo && cur[new_hi] == NEG_INF)
            new_hi--;
        if (row_best > best) {
            best = row_best;
            best_i = row_best_i;
            best_j = d - row_best_i;
        }

        tmp = prev2;
        prev2 = prev;
        prev = cur;
        cur = tmp;
        for (int64_t i = lo; i <= hi; i++)
            if (i < new_lo || i > new_hi)
                prev[i] = NEG_INF;
        prev2_lo = prev_lo;
        prev2_hi = prev_hi;
        prev_lo = new_lo;
        prev_hi = new_hi;
        int64_t c_lo = d + 1 - n > 0 ? d + 1 - n : 0;
        int64_t c_hi = d + 1 < m ? d + 1 : m;
        for (int64_t i = c_lo; i <= c_hi; i++)
            cur[i] = NEG_INF;
    }
    free(buf);
    out[0] = best;
    out[1] = best_i;
    out[2] = best_j;
    out[3] = anti_diagonals;
    out[4] = cells;
    out[5] = terminated;
    return 0;
}

/*
 * Extend `count` sequence pairs packed end to end: pair k is
 * qbuf[qoff[k]:qoff[k+1]] against tbuf[toff[k]:toff[k+1]].  Both sides must
 * be non-empty.  Writes six int64 values per pair to out.  Returns 0, or -1
 * when memory runs out.
 */
int xdrop_reference_batch(const uint8_t *qbuf, const int64_t *qoff,
                          const uint8_t *tbuf, const int64_t *toff,
                          int64_t count, int64_t match, int64_t mismatch,
                          int64_t gap, int64_t xdrop, int64_t *out)
{
    for (int64_t k = 0; k < count; k++) {
        if (extend_one(qbuf + qoff[k], qoff[k + 1] - qoff[k],
                       tbuf + toff[k], toff[k + 1] - toff[k],
                       match, mismatch, gap, xdrop, out + 6 * k) != 0)
            return -1;
    }
    return 0;
}
