/* Flooding scaled min-sum over the global parity check, bit-exact with
 * decoder._flood.
 *
 * Check (i, r), i < m, r < n, holds variable j*n + t, t = (r + e[i][j])
 * mod n, in slot j.  Messages are stored in variable order, block by
 * block: msg[(i*n + j)*n + t].  The variable half then sums and rewrites
 * the m rows of column j in place, and the check half reads slot j as
 * two contiguous segments, r < n-e at t = r+e and the rest at t = r+e-n,
 * with j ascending in both.  Every inner loop runs over r or over t.
 *
 * Every floating-point operation is the one numpy performs, in numpy's
 * order: two-minimum tracking with first-slot tie breaks; the message
 * +-min(scale*(m2 or m1), clip), which equals numpy's clipped
 * scale*prod*sgn*(m2 or m1) because negation is exact and clip > 0; and
 * each variable sum over its checks in ascending order, in numpy's
 * pairwise order (valid for m <= 128).  Build with -ffp-contract=off and
 * without -ffast-math, or the sums change.
 *
 * On x86-64 gftmux_flood is compiled once per ISA level (x86-64-v4, AVX2,
 * baseline), with the helpers inlined into each clone, and the dynamic
 * loader picks the clone for the CPU once.  The clones stay exact: vector
 * lanes run across independent checks r or variables t, never along the
 * fold over j or the sum over i, so each lane does the scalar operations
 * in the scalar order.  GFTMUX_ONE_TARGET builds a single function for
 * the -march given instead, so that a test can check every level.
 *
 * One call decodes L layers to limits[K-1] (ascending, distinct).  For
 * layer l, bits[l][k] receives the decisions at limits[k] for every
 * limit before the syndrome clears, bits[l][K] the latest decisions, and
 * kstar[l] the iteration at which the syndrome first clears (0: never).
 * kstar[l] = -1 reports a non-finite variable total: numpy's NaN rules
 * are not reproduced, so the caller decodes that layer itself.
 * work holds m*n*n + 10*n doubles.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

/* fold slot j of n checks into their two minima and sign products */
INLINE void fold(const double *restrict x, int64_t n, double *restrict m1,
                 double *restrict m2, double *restrict prod)
{
    for (int64_t r = 0; r < n; r++) {
        double xr = x[r], a = fabs(xr), lo = m1[r], p = prod[r];
        prod[r] = xr < 0 ? -p : p;
        m1[r] = a < lo ? a : lo;
        lo = lo < a ? a : lo;
        m2[r] = lo < m2[r] ? lo : m2[r];
    }
}

/* overwrite slot j of n checks with its check-to-variable messages */
INLINE void emit(double *restrict x, int64_t n, const double *restrict m1,
                 const double *restrict c1, const double *restrict c2,
                 const double *restrict prod, double *restrict taken)
{
    for (int64_t r = 0; r < n; r++) {
        double xr = x[r], p = prod[r], a1 = c1[r], a2 = c2[r], t = taken[r];
        double hit = (fabs(xr) == m1[r] ? 1.0 : 0.0) * (1.0 - t);
        taken[r] = t + hit;
        x[r] = (hit > 0 ? a2 : a1) * (xr < 0 ? -p : p);
    }
}

INLINE void check_update(double *msg, int64_t n, int64_t m, const int64_t *expo,
                         double scale, double clip, double *ws)
{
    double *m1 = ws, *m2 = ws + n, *c1 = ws + 2 * n, *prod = ws + 3 * n,
           *taken = ws + 4 * n;
    for (int64_t i = 0; i < m; i++) {
        double *blk = msg + i * n * n;
        for (int64_t r = 0; r < n; r++)
            m1[r] = m2[r] = INFINITY, prod[r] = 1.0, taken[r] = 0.0;
        for (int64_t j = 0; j < n; j++) {
            int64_t e = expo[i * n + j], k = n - e;
            fold(blk + j * n + e, k, m1, m2, prod);
            fold(blk + j * n, e, m1 + k, m2 + k, prod + k);
        }
        for (int64_t r = 0; r < n; r++) {
            double a1 = scale * m1[r], a2 = scale * m2[r];
            c1[r] = a1 < clip ? a1 : clip;
            m2[r] = a2 < clip ? a2 : clip;
        }
        for (int64_t j = 0; j < n; j++) {
            int64_t e = expo[i * n + j], k = n - e;
            emit(blk + j * n + e, k, m1, c1, m2, prod, taken);
            emit(blk + j * n, e, m1 + k, c1 + k, m2 + k, prod + k, taken + k);
        }
    }
}

/* Sum the m rows of column j, col[i*n*n + t], in numpy's pairwise order,
 * add the channel, decide its n variables and leave in each row the total
 * less that row's message; 0 if a total is not finite. */
INLINE int var_update(double *restrict col, const double *restrict ch, int64_t n,
                      int64_t m, double *restrict acc, uint8_t *restrict cur)
{
    int64_t i = 0, nn = n * n;
    double *tot = acc + 8 * n;
    int finite = 1;
    if (m < 8) {
        for (int64_t t = 0; t < n; t++)
            tot[t] = 0.;
    } else {
        for (int64_t k = 0; k < 8; k++)
            memcpy(acc + k * n, col + k * nn, n * sizeof(double));
        for (i = 8; i < m - (m % 8); i += 8)
            for (int64_t k = 0; k < 8; k++)
                for (int64_t t = 0; t < n; t++)
                    acc[k * n + t] += col[(i + k) * nn + t];
        const double *r = acc;
        for (int64_t t = 0; t < n; t++)
            tot[t] = ((r[t] + r[n + t]) + (r[2 * n + t] + r[3 * n + t]))
                     + ((r[4 * n + t] + r[5 * n + t]) + (r[6 * n + t] + r[7 * n + t]));
    }
    for (; i < m; i++)
        for (int64_t t = 0; t < n; t++)
            tot[t] += col[i * nn + t];
    for (int64_t t = 0; t < n; t++) {
        tot[t] += ch[t];
        finite &= isfinite(tot[t]);
        cur[t] = tot[t] < 0;
    }
    for (i = 0; i < m; i++)
        for (int64_t t = 0; t < n; t++)
            col[i * nn + t] = tot[t] - col[i * nn + t];
    return finite;
}

/* 1 if every check of the decisions cur is satisfied */
INLINE int syndrome_clear(const uint8_t *cur, int64_t n, int64_t m,
                          const int64_t *expo, uint8_t *par)
{
    for (int64_t i = 0; i < m; i++) {
        memset(par, 0, n);
        for (int64_t j = 0; j < n; j++) {
            int64_t e = expo[i * n + j];
            const uint8_t *col = cur + j * n;
            for (int64_t r = 0; r < n - e; r++)
                par[r] ^= col[r + e];
            for (int64_t r = n - e; r < n; r++)
                par[r] ^= col[r + e - n];
        }
        for (int64_t r = 0; r < n; r++)
            if (par[r])
                return 0;
    }
    return 1;
}

#if defined(__x86_64__) && !defined(GFTMUX_ONE_TARGET)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
void gftmux_flood(const double *channel, int64_t L, int64_t n, int64_t m,
                  const int64_t *expo, double scale, double clip,
                  const int64_t *limits, int64_t K, double *work,
                  uint8_t *bits, int64_t *kstar)
{
    double *msg = work, *ws = work + m * n * n;
    int64_t nv = n * n;
    for (int64_t l = 0; l < L; l++) {
        const double *ch = channel + l * nv;
        uint8_t *out = bits + l * (K + 1) * nv, *cur = out + K * nv;
        int64_t next = 0;
        kstar[l] = 0;
        for (int64_t i = 0; i < m; i++)   /* every check starts at its channel LLR */
            memcpy(msg + i * nv, ch, nv * sizeof(double));
        for (int64_t it = 1; it <= limits[K - 1]; it++) {
            int finite = 1;
            check_update(msg, n, m, expo, scale, clip, ws);
            for (int64_t j = 0; j < n; j++)
                finite &= var_update(msg + j * n, ch + j * n, n, m, ws, cur + j * n);
            if (!finite) {
                kstar[l] = -1;
                break;
            }
            if (syndrome_clear(cur, n, m, expo, (uint8_t *)(ws + 9 * n))) {
                kstar[l] = it;
                break;
            }
            if (it == limits[next])
                memcpy(out + nv * next++, cur, nv);
        }
    }
}
