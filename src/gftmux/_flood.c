/* Flooding scaled min-sum over the global parity check, bit-exact with
 * decoder._flood.
 *
 * Check (i, r), i < m, r < n, holds variable j*n + t, t = (r + e[i][j])
 * mod n, in slot j.  A call decodes G layers side by side, one per lane
 * g < G.  Messages are stored in variable order, block by block, lane
 * fastest: msg[((i*n + j)*n + t)*G + g].  The variable half then sums and
 * rewrites the m rows of column j in place, and the check half reads slot
 * j as two contiguous segments, r < n-e at t = r+e and the rest at
 * t = r+e-n, with j ascending in both.  Every inner loop runs over the
 * pairs (r, g) or (t, g), G*n of them per column.
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
 * lanes run across independent checks r, variables t or layers g, never
 * along the fold over j or the sum over i, so each lane does its layer's
 * scalar operations in the scalar order.  GFTMUX_ONE_TARGET builds a
 * single function for the -march given instead, so that a test can check
 * every level.
 *
 * One call decodes L layers to limits[K-1] (ascending, distinct), G at a
 * time: a lane whose layer stops takes the next pending layer at once, so
 * lanes idle only once no layer is left.  bits is (L, K, n*n): for layer
 * l, bits[l][k] receives the decisions at limits[k] for every limit
 * before the syndrome clears, and the decisions at convergence for every
 * later one; kstar[l] is the iteration at which the syndrome first clears
 * (0: never).  kstar[l] = -1 reports a non-finite variable total: numpy's
 * NaN rules are not reproduced, so the caller decodes that layer itself
 * (its bits are left unspecified).  work holds the messages, a
 * lane-interleaved copy of the channel only for G > 1 (one lane reads the
 * channel in place), the scratch and the lanes' state and decisions:
 * G*((m + (G > 1))*n*n + 11*n + 3) + ceil(G*(n*n + 1)/8) doubles.
 *
 * gftmux_syndrome counts the unsatisfied checks of a stack of words with
 * the kernel's own rolled XOR (GlobalParityCheck.syndrome_weight).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define INLINE static inline __attribute__((always_inline))

/* fold slot j of the checks of one segment into their two minima and sign
 * products */
INLINE void fold(const double *restrict x, int64_t len, double *restrict m1,
                 double *restrict m2, double *restrict prod)
{
    for (int64_t q = 0; q < len; q++) {
        double xq = x[q], a = fabs(xq), lo = m1[q], p = prod[q];
        prod[q] = xq < 0 ? -p : p;
        m1[q] = a < lo ? a : lo;
        lo = lo < a ? a : lo;
        m2[q] = lo < m2[q] ? lo : m2[q];
    }
}

/* overwrite slot j of the checks of one segment with its check-to-variable
 * messages */
INLINE void emit(double *restrict x, int64_t len, const double *restrict m1,
                 const double *restrict c1, const double *restrict c2,
                 const double *restrict prod, double *restrict taken)
{
    for (int64_t q = 0; q < len; q++) {
        double xq = x[q], p = prod[q], a1 = c1[q], a2 = c2[q], t = taken[q];
        double hit = (fabs(xq) == m1[q] ? 1.0 : 0.0) * (1.0 - t);
        taken[q] = t + hit;
        x[q] = (hit > 0 ? a2 : a1) * (xq < 0 ? -p : p);
    }
}

INLINE void check_update(double *msg, int64_t n, int64_t m, int64_t G,
                         const int64_t *expo, double scale, double clip, double *ws)
{
    int64_t w = n * G;
    double *m1 = ws, *m2 = ws + w, *c1 = ws + 2 * w, *prod = ws + 3 * w,
           *taken = ws + 4 * w;
    for (int64_t i = 0; i < m; i++) {
        double *blk = msg + i * n * w;
        for (int64_t q = 0; q < w; q++)
            m1[q] = m2[q] = INFINITY, prod[q] = 1.0, taken[q] = 0.0;
        for (int64_t j = 0; j < n; j++) {
            int64_t e = expo[i * n + j] * G, k = w - e;
            fold(blk + j * w + e, k, m1, m2, prod);
            fold(blk + j * w, e, m1 + k, m2 + k, prod + k);
        }
        for (int64_t q = 0; q < w; q++) {
            double a1 = scale * m1[q], a2 = scale * m2[q];
            c1[q] = a1 < clip ? a1 : clip;
            m2[q] = a2 < clip ? a2 : clip;
        }
        for (int64_t j = 0; j < n; j++) {
            int64_t e = expo[i * n + j] * G, k = w - e;
            emit(blk + j * w + e, k, m1, c1, m2, prod, taken);
            emit(blk + j * w, e, m1 + k, c1 + k, m2 + k, prod + k, taken + k);
        }
    }
}

/* Sum the m rows of column j, col[i*stride + q] for the w = n*G pairs q,
 * in numpy's pairwise order, add the channel, decide the column and leave
 * in each row the total less that row's message.  nf[q] turns NaN once a
 * total is not finite. */
INLINE void var_update(double *restrict col, const double *restrict ch, int64_t w,
                       int64_t stride, int64_t m, double *restrict acc,
                       double *restrict nf, uint8_t *restrict cur)
{
    int64_t i = 0;
    double *tot = acc + 8 * w;
    if (m < 8) {
        for (int64_t q = 0; q < w; q++)
            tot[q] = 0.;
    } else {
        for (int64_t k = 0; k < 8; k++)
            memcpy(acc + k * w, col + k * stride, w * sizeof(double));
        for (i = 8; i < m - (m % 8); i += 8)
            for (int64_t k = 0; k < 8; k++)
                for (int64_t q = 0; q < w; q++)
                    acc[k * w + q] += col[(i + k) * stride + q];
        const double *r = acc;
        for (int64_t q = 0; q < w; q++)
            tot[q] = ((r[q] + r[w + q]) + (r[2 * w + q] + r[3 * w + q]))
                     + ((r[4 * w + q] + r[5 * w + q]) + (r[6 * w + q] + r[7 * w + q]));
    }
    for (; i < m; i++)
        for (int64_t q = 0; q < w; q++)
            tot[q] += col[i * stride + q];
    for (int64_t q = 0; q < w; q++) {
        tot[q] += ch[q];
        nf[q] += tot[q] - tot[q];   /* 0, or NaN from an infinite or NaN total */
        cur[q] = tot[q] < 0;
    }
    for (i = 0; i < m; i++)
        for (int64_t q = 0; q < w; q++)
            col[i * stride + q] = tot[q] - col[i * stride + q];
}

INLINE int every(const uint8_t *flag, int64_t G)
{
    int all = 1;
    for (int64_t g = 0; g < G; g++)
        all &= flag[g];
    return all;
}

/* par[r*G + g] = XOR over the n slots of check (i, r) of lane g's words
 * cur, for the CPM exponents e = expo[i*n ...] of row i: the rolled column
 * j read as two segments, as in check_update. */
INLINE void check_parity(const uint8_t *cur, int64_t n, int64_t G, const int64_t *e_row,
                         uint8_t *par)
{
    int64_t w = n * G;
    memset(par, 0, w);
    for (int64_t j = 0; j < n; j++) {
        int64_t e = e_row[j] * G, k = w - e;
        const uint8_t *col = cur + j * w;
        for (int64_t q = 0; q < k; q++)
            par[q] ^= col[q + e];
        for (int64_t q = k; q < w; q++)
            par[q] ^= col[q - k];
    }
}

/* Set bad[g] if a check of lane g's decisions cur is unsatisfied; stop as
 * soon as every lane is bad. */
INLINE void syndrome(const uint8_t *cur, int64_t n, int64_t m, int64_t G,
                     const int64_t *expo, uint8_t *par, uint8_t *bad)
{
    for (int64_t i = 0; i < m && !every(bad, G); i++) {
        check_parity(cur, n, G, expo + i * n, par);
        for (int64_t r = 0; r < n; r++)
            for (int64_t g = 0; g < G; g++)
                bad[g] |= par[r * G + g];
    }
}

/* weight[l] = the number of checks whose XOR over word l of the L words of
 * n*n bytes (bits of one layer, or GF(2^s) symbols for s <= 8) is nonzero. */
void gftmux_syndrome(const uint8_t *restrict words, int64_t L, int64_t n, int64_t m,
                     const int64_t *expo, int64_t *weight)
{
    uint8_t par[n];
    for (int64_t l = 0; l < L; l++) {
        int64_t nonzero = 0;
        for (int64_t i = 0; i < m; i++) {
            check_parity(words + l * n * n, n, 1, expo + i * n, par);
            for (int64_t r = 0; r < n; r++)
                nonzero += par[r] != 0;
        }
        weight[l] = nonzero;
    }
}

/* Lane g starts on the channel LLRs src of its layer, or on zeros (idle)
 * when src is NULL; one lane reads the channel in place. */
INLINE void load_lane(double *msg, double *chl, const double *src, int64_t nv,
                      int64_t m, int64_t G, int64_t g)
{
    if (G == 1) {
        for (int64_t i = 0; i < m; i++)   /* every check starts at its channel LLR */
            memcpy(msg + i * nv, src, nv * sizeof(double));
        return;
    }
    for (int64_t v = 0; v < nv; v++)
        chl[v * G + g] = src ? src[v] : 0.;
    for (int64_t i = 0; i < m; i++)
        for (int64_t v = 0; v < nv; v++)
            msg[(i * nv + v) * G + g] = chl[v * G + g];
}

INLINE void store_lane(uint8_t *dst, const uint8_t *cur, int64_t nv, int64_t G,
                       int64_t g)
{
    if (G == 1) {
        memcpy(dst, cur, nv);
        return;
    }
    for (int64_t v = 0; v < nv; v++)
        dst[v] = cur[v * G + g];
}

/* What a lane is decoding: its layer (-1: idle), iteration and next limit */
struct lane {
    int64_t layer, it, next;
};

/* Lane g takes the next pending layer, or idles on zeros once none is
 * left; 1 if it took one. */
INLINE int refill(struct lane *ln, int64_t *pending, int64_t L, int64_t *kstar,
                  double *msg, double *chl, const double *channel, int64_t nv,
                  int64_t m, int64_t G, int64_t g)
{
    ln->layer = *pending < L ? (*pending)++ : -1;
    ln->it = ln->next = 0;
    if (ln->layer >= 0)
        kstar[ln->layer] = 0;
    if (ln->layer >= 0 || G > 1)
        load_lane(msg, chl, ln->layer >= 0 ? channel + ln->layer * nv : NULL, nv, m, G, g);
    return ln->layer >= 0;
}

#if defined(__x86_64__) && !defined(GFTMUX_ONE_TARGET)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
void gftmux_flood(const double *channel, int64_t L, int64_t n, int64_t m,
                  const int64_t *expo, double scale, double clip,
                  const int64_t *limits, int64_t K, int64_t G, double *work,
                  uint8_t *bits, int64_t *kstar)
{
    int64_t nv = n * n, w = n * G, nw = nv * G, pending = 0, active = 0;
    double *msg = work, *chl = msg + m * nw, *ws = chl + (G > 1 ? nw : 0),
           *nf = ws + 10 * w;
    struct lane *lane = (struct lane *)(nf + w);
    uint8_t *cur = (uint8_t *)(lane + G), *bad = cur + nw;
    for (int64_t g = 0; g < G; g++)
        active += refill(lane + g, &pending, L, kstar, msg, chl, channel, nv, m, G, g);
    while (active) {
        const double *ch = G == 1 ? channel + lane[0].layer * nv : chl;
        check_update(msg, n, m, G, expo, scale, clip, ws);
        memset(nf, 0, w * sizeof(double));
        for (int64_t j = 0; j < n; j++)
            var_update(msg + j * w, ch + j * w, w, nw, m, ws, nf, cur + j * w);
        for (int64_t g = 0; g < G; g++)
            bad[g] = lane[g].layer < 0;
        for (int64_t t = 0; t < n; t++)
            for (int64_t g = 0; g < G; g++)
                if (nf[t * G + g] != 0 && !bad[g])
                    bad[g] = 1, kstar[lane[g].layer] = -1;
        syndrome(cur, n, m, G, expo, (uint8_t *)ws, bad);
        for (int64_t g = 0; g < G; g++) {
            struct lane *ln = lane + g;
            if (ln->layer < 0)
                continue;
            uint8_t *out = bits + ln->layer * K * nv;
            int stop = kstar[ln->layer] < 0;
            ln->it++;
            if (!stop && !bad[g]) {   /* converged: every limit left reports it */
                kstar[ln->layer] = ln->it;
                stop = 1;
                store_lane(out + nv * ln->next, cur, nv, G, g);
                for (int64_t k = ln->next + 1; k < K; k++)
                    memcpy(out + nv * k, out + nv * ln->next, nv);
            } else if (!stop && ln->it == limits[ln->next]) {
                store_lane(out + nv * ln->next++, cur, nv, G, g);
                stop = ln->next == K;
            }
            if (stop)
                active -= !refill(ln, &pending, L, kstar, msg, chl, channel, nv, m, G, g);
        }
    }
}
