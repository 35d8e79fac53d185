/* Flooding scaled min-sum over the global parity check, bit-exact with
 * decoder._flood.
 *
 * Check (i, r), i < m, r < n, holds variable j*n + (r + e[i][j]) mod n
 * in slot j.  Messages are stored block by block, msg[(i*n + j)*n + r],
 * so both half-iterations run as vector loops over r or over t.
 *
 * Every floating-point operation is the one numpy performs, in numpy's
 * order: two-minimum tracking with first-slot tie breaks; the message
 * +-min(scale*(m2 or m1), clip), which equals numpy's clipped
 * scale*prod*sgn*(m2 or m1) because negation is exact and clip > 0; and
 * each variable sum over its checks in ascending order, in numpy's
 * pairwise order (valid for m <= 128).  Build with -ffp-contract=off and
 * without -ffast-math, or the sums change.
 *
 * One call decodes L layers to limits[K-1] (ascending, distinct).  For
 * layer l, bits[l][k] receives the decisions at limits[k] for every
 * limit before the syndrome clears, bits[l][K] the latest decisions, and
 * kstar[l] the iteration at which the syndrome first clears (0: never).
 * kstar[l] = -1 reports a non-finite variable total: numpy's NaN rules
 * are not reproduced, so the caller decodes that layer itself.
 * work holds m*n*n + (m + 10)*n doubles.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* fold slot j of n checks into their two minima and sign products */
static void fold(const double *restrict x, int64_t n, double *restrict m1,
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
static void emit(double *restrict x, int64_t n, const double *restrict m1,
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

static void check_update(double *msg, int64_t n, int64_t m, double scale,
                         double clip, double *ws)
{
    double *m1 = ws, *m2 = ws + n, *c1 = ws + 2 * n, *prod = ws + 3 * n,
           *taken = ws + 4 * n;
    for (int64_t i = 0; i < m; i++) {
        double *blk = msg + i * n * n;
        for (int64_t r = 0; r < n; r++)
            m1[r] = m2[r] = INFINITY, prod[r] = 1.0, taken[r] = 0.0;
        for (int64_t j = 0; j < n; j++)
            fold(blk + j * n, n, m1, m2, prod);
        for (int64_t r = 0; r < n; r++) {
            double a1 = scale * m1[r], a2 = scale * m2[r];
            c1[r] = a1 < clip ? a1 : clip;
            m2[r] = a2 < clip ? a2 : clip;
        }
        for (int64_t j = 0; j < n; j++)
            emit(blk + j * n, n, m1, c1, m2, prod, taken);
    }
}

/* tot[t] = sum over i of a[i*n + t], in numpy's pairwise order */
static void column_sums(const double *a, int64_t m, int64_t n, double *acc,
                        double *tot)
{
    int64_t i = 0;
    if (m < 8) {
        for (int64_t t = 0; t < n; t++)
            tot[t] = 0.;
    } else {
        memcpy(acc, a, 8 * n * sizeof(double));
        for (i = 8; i < m - (m % 8); i += 8)
            for (int64_t k = 0; k < 8 * n; k++)
                acc[k] += a[i * n + k];
        const double *r = acc;
        for (int64_t t = 0; t < n; t++)
            tot[t] = ((r[t] + r[n + t]) + (r[2 * n + t] + r[3 * n + t]))
                     + ((r[4 * n + t] + r[5 * n + t]) + (r[6 * n + t] + r[7 * n + t]));
    }
    for (; i < m; i++)
        for (int64_t t = 0; t < n; t++)
            tot[t] += a[i * n + t];
}

/* update the n variables j*n + t of column j; 0 if a total is not finite */
static int var_update(double *msg, const double *ch, int64_t n, int64_t m,
                      const int64_t *expo, int64_t j, double *ws, uint8_t *cur)
{
    double *tmp = ws, *acc = ws + m * n, *tot = acc + 8 * n;
    int finite = 1;
    for (int64_t i = 0; i < m; i++) {   /* variable t sits at r = t - e mod n */
        int64_t e = expo[i * n + j];
        const double *src = msg + (i * n + j) * n;
        memcpy(tmp + i * n + e, src, (n - e) * sizeof(double));
        memcpy(tmp + i * n, src + n - e, e * sizeof(double));
    }
    column_sums(tmp, m, n, acc, tot);
    for (int64_t t = 0; t < n; t++) {
        tot[t] += ch[j * n + t];
        finite &= isfinite(tot[t]);
        cur[j * n + t] = tot[t] < 0;
    }
    for (int64_t i = 0; i < m; i++) {
        int64_t e = expo[i * n + j];
        double *row = tmp + i * n, *dst = msg + (i * n + j) * n;
        for (int64_t t = 0; t < n; t++)
            row[t] = tot[t] - row[t];
        memcpy(dst, row + e, (n - e) * sizeof(double));
        memcpy(dst + n - e, row, e * sizeof(double));
    }
    return finite;
}

/* 1 if every check of the decisions cur is satisfied */
static int syndrome_clear(const uint8_t *cur, int64_t n, int64_t m,
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
        for (int64_t i = 0; i < m; i++)
            for (int64_t j = 0; j < n; j++) {
                int64_t e = expo[i * n + j];
                double *dst = msg + (i * n + j) * n;
                memcpy(dst, ch + j * n + e, (n - e) * sizeof(double));
                memcpy(dst + n - e, ch + j * n, e * sizeof(double));
            }
        for (int64_t it = 1; it <= limits[K - 1]; it++) {
            int finite = 1;
            check_update(msg, n, m, scale, clip, ws);
            for (int64_t j = 0; j < n; j++)
                finite &= var_update(msg, ch, n, m, expo, j, ws, cur);
            if (!finite) {
                kstar[l] = -1;
                break;
            }
            if (syndrome_clear(cur, n, m, expo, (uint8_t *)(ws + (m + 9) * n))) {
                kstar[l] = it;
                break;
            }
            if (it == limits[next])
                memcpy(out + nv * next++, cur, nv);
        }
    }
}
