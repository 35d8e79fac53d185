/* GF(2) products by packed 4-bit XOR tables (the Four Russians method),
 * for a fixed K x C 0/1 matrix M; the tables come from galois.Gf2Map.
 *
 * For row group g < ceil(K/4) and each nibble v < 16, the table row
 * tab[(g*16 + v)*W ...], W = ceil(C/64), holds the XOR of the rows 4g + i
 * of M with bit i of v set (rows past K are zero), column c at bit c%64 of
 * word c/64.  Row r of x @ M is then the XOR of one table row per group,
 * indexed by the nibble of x[r][4g .. 4g+3].
 *
 * gftmux_gf2_apply maps N rows of K uint8 to N rows of C uint8 0/1; only
 * bit 0 of each input byte is read.  It packs and unpacks itself, and
 * keeps the accumulator on the stack, CHUNK words at a time.
 */
#include <stdint.h>
#include <string.h>

#define CHUNK 16

/* bit i of the result is bit 0 of byte i of the 4 bytes at p */
static inline uint32_t nibble(const uint8_t *p)
{
    uint32_t q;
    memcpy(&q, p, 4);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return (q & 0x01010101u) * 0x08040201u >> 24 & 15;
#else
    return (q & 0x01010101u) * 0x01020408u >> 24 & 15;
#endif
}

/* byte i at p becomes bit i of b: copy b to every byte, keep bit i of
 * byte i, and add 0x80 - 2^i so that its top bit is set iff bit i was */
static inline void spread8(uint8_t *p, uint64_t b)
{
    uint64_t v = (b * 0x0101010101010101u & 0x8040201008040201u) + 0x00406070787c7e7fu;
    v = v >> 7 & 0x0101010101010101u;
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    memcpy(p, &v, 8);
}

void gftmux_gf2_apply(const uint8_t *x, int64_t N, int64_t K, int64_t C,
                      const uint64_t *tab, uint8_t *out)
{
    int64_t W = (C + 63) / 64, full = K / 4;
    for (int64_t r = 0; r < N; r++) {
        const uint8_t *row = x + r * K;
        uint32_t tail = 0;   /* the nibble of the last K % 4 inputs */
        for (int64_t i = 0; i < K % 4; i++)
            tail |= (uint32_t)(row[4 * full + i] & 1) << i;
        for (int64_t w0 = 0; w0 < W; w0 += CHUNK) {
            int64_t wn = W - w0 < CHUNK ? W - w0 : CHUNK;
            const uint64_t *t0 = tab + w0;
            uint64_t acc[CHUNK] = {0};
            for (int64_t g = 0; g < full; g++) {
                const uint64_t *t = t0 + (g * 16 + nibble(row + 4 * g)) * W;
                for (int64_t w = 0; w < wn; w++)
                    acc[w] ^= t[w];
            }
            if (K % 4) {
                const uint64_t *t = t0 + (full * 16 + tail) * W;
                for (int64_t w = 0; w < wn; w++)
                    acc[w] ^= t[w];
            }
            uint8_t *o = out + r * C + w0 * 64;
            int64_t cn = C - w0 * 64 < CHUNK * 64 ? C - w0 * 64 : CHUNK * 64, c = 0;
            for (; c + 8 <= cn; c += 8)
                spread8(o + c, acc[c >> 6] >> (c & 63) & 0xff);
            for (; c < cn; c++)
                o[c] = acc[c >> 6] >> (c & 63) & 1;
        }
    }
}
