/* fill, colon and moves fill pawnnim.grundy.PeriodicTable a length at a
   time: the moves, the mex and the colon entries of every phase.

   E, R and F are p x width int32 arrays in C order, indexed by phase and
   length.  E[q, l] is the value of the length-l subword at start phase q,
   R[q, l] the colon entry of that subword read backwards, and F[e, l] the
   colon entry of the length-l subword that ends before end phase e, read
   forwards.  A colon entry is the value of the piece a capture leaves;
   LOONY is set when its colon class is loony, and then a side bit (SIDE_R
   in R, SIDE_F in F) when the tail's first file is open.  flags2 holds
   each phase's flag twice over, so that phase (s + q) % p is index s + q
   for s, q < p. */

#include <stdint.h>
#include <string.h>

#define SIDE_R (1u << 28)
#define SIDE_F (1u << 29)
#define LOONY (1u << 30)

/* The moves of a word of L >= 2 files whose R row is r and whose tails'
   F entries end at t: t[-k] is the entry of the tail from file k + 1 to
   the end.  A move is a class, or at least SIDE_R if loony.  The end move
   at file 0 is t[0] and the one at file L - 1 is r[L - 1]: each is the
   colon entry of the rest of the word.  An interior move at file k leaves
   the capture pieces of r[k] and t[-k]; its class is their exclusive or
   without LOONY, and it is loony when a side bit survives. */
static inline uint32_t interior(const int32_t *r, const int32_t *t,
                                int64_t k)
{
    return ((uint32_t)r[k] ^ (uint32_t)t[-k]) & ~LOONY;
}

/* F entries of the tails of the length-L word at start phase q: they all
   end before the word's end phase (q + L) % p, and the longest has
   L - 1 files. */
static inline const int32_t *tails(int64_t p, int64_t L, int64_t width,
                                   const int32_t *F, int64_t q)
{
    return F + (q + L) % p * width + L - 1;
}

/* The colon entry of a tail whose capture leaves a piece worth cap.  adv
   is the entry one file shorter that the advance leaves, adv_u the entry
   two files shorter that a stopped colon file (und 1) leaves after its
   forced advance.  A plain colon file is loony when adv is cap, a stopped
   one unless adv_u is cap; a loony entry equals no value. */
static inline int32_t colon_entry(uint8_t und, int32_t cap, int32_t adv,
                                  int32_t adv_u, int32_t loony_bits)
{
    int loony = und ? adv_u != cap : adv == cap;
    return loony ? cap | loony_bits : cap;
}

/* Write R[:, L] and F[:, L] from lengths below L. */
void colon(int64_t p, int64_t L, int64_t width, const int32_t *E,
           int32_t *R, int32_t *F, const uint8_t *flags2)
{
    /* R's tail at start phase q has its colon file at q + L and its first
       file at q + L - 1; F's tail at end phase e starts at e - L behind
       the colon file e - L - 1, and without its first file it is the
       length L - 1 subword at start phase e - L + 1 */
    int64_t s = L % p, f = (L + p - 1) % p, t = (p - L % p) % p,
            u = (p - (L + 1) % p) % p, c = (p + 1 - L % p) % p;
    for (int64_t q = 0; q < p; q++) {
        int32_t *r = R + q * width + L, *e = F + q * width + L;
        int32_t r_loony = LOONY | (flags2[f + q] ? 0 : SIDE_R),
                f_loony = LOONY | (flags2[t + q] ? 0 : SIDE_F);
        /* a tail of no file or one is loony, and its capture leaves
           nothing, worth 0 */
        r[0] = L < 2 ? r_loony : colon_entry(flags2[s + q],
            E[q * width + L - 1], r[-1], r[-2], r_loony);
        e[0] = L < 2 ? f_loony : colon_entry(flags2[u + q],
            E[(c + q) % p * width + L - 1], e[-1], e[-2], f_loony);
    }
}

/* The byte of the mex scratch that a move c of a length-L word marks. */
static inline uint32_t mark(uint32_t c, int64_t L)
{
    return c <= (uint64_t)L ? c : (uint32_t)L + 1;
}

/* Fill E[:, L] and the colon entries of length L.  From L = 2 on, each
   row marks byte c of seen, L + 2 bytes of scratch, for each class c <= L,
   and byte L + 1 for any other move, so that no entry can write past the
   scratch.  L moves leave a byte of 0..L unmarked, and the first is the
   mex. */
void fill(int64_t p, int64_t L, int64_t width, int32_t *E, int32_t *R,
          int32_t *F, const uint8_t *flags2, uint8_t *seen)
{
    for (int64_t q = 0; q < p; q++) {
        if (L < 2) {  /* the empty word is worth 0, and a lone file 1 */
            E[q * width + L] = (int32_t)L;
            continue;
        }
        const int32_t *r = R + q * width, *t = tails(p, L, width, F, q);
        memset(seen, 0, L + 2);
        seen[mark(t[0], L)] = 1;
        /* unrolled, the marks take about 35% less time at -O2 */
#pragma GCC unroll 4
        for (int64_t k = 1; k < L - 1; k++)
            seen[mark(interior(r, t, k), L)] = 1;
        seen[mark(r[L - 1], L)] = 1;
        E[q * width + L] = (int32_t)((uint8_t *)memchr(seen, 0, L + 1) - seen);
    }
    colon(p, L, width, E, R, F, flags2);
}

/* A move as move_classes gives it: its class, or -1 if loony. */
static inline int32_t class(uint32_t c)
{
    return c < SIDE_R ? (int32_t)c : -1;
}

/* The class of every move of the length-L words, 0 <= L <= width, at
   every start phase into the p x L array out, -1 for loony.  A lone file's
   move is worth 0. */
void moves(int64_t p, int64_t L, int64_t width, const int32_t *R,
           const int32_t *F, int32_t *out)
{
    if (L < 2) {
        memset(out, 0, p * L * sizeof *out);
        return;
    }
    for (int64_t q = 0; q < p; q++, out += L) {
        const int32_t *r = R + q * width, *t = tails(p, L, width, F, q);
        out[0] = class(t[0]);
        for (int64_t k = 1; k < L - 1; k++)
            out[k] = class(interior(r, t, k));
        out[L - 1] = class(r[L - 1]);
    }
}

/* The scan_ functions fill a tier of pawnnim.experiments.ScanTables,
   whose docstring lays out its tables; C holds the word counts and cl[t]
   the colon tier CL[t].  A move sets its class's bit in a value mask: an
   end move's colon byte is its class below 64, else loony, and an
   interior move is loony when bit 6 of either side's byte is set. */
static inline uint64_t end_bit(uint8_t b)
{
    return (uint64_t)(b < 64) << (b & 63);
}

static inline uint64_t interior_bit(uint8_t l, uint8_t r)
{
    return (uint64_t)!((l | r) & 64) << ((l ^ r) & 63);
}

/* Write row k - j of steps and right, by suffix rank, for each suffix
   file k of tier m: the rank of the reversed word up to k less the
   reversed prefix's, and the colon byte of w[k:] (read if k is interior). */
void scan_suffix(int64_t m, int64_t j, const int64_t *C,
                 const uint8_t *const *cl, int32_t *steps, uint8_t *right)
{
    int64_t size = C[m - j];
    for (int64_t i = 0; i < size; i++) {
        int64_t s = i;  /* the rank of the suffix from file k on */
        int32_t step = 0;
        for (int64_t k = j; k < m; k++) {
            int64_t row = (k - j) * size + i, d = s >= C[m - 1 - k];
            right[row] = cl[m - k - 1][s];
            step += (int32_t)(d * C[k]);  /* d: file k is stopped */
            steps[row] = step;
            s -= d * C[m - 1 - k];
        }
    }
}

/* Write out[start .. start + n), the values of a block of tier m >= 2
   with a j-file prefix, a flag per byte.  Each file's moves are folded
   into mask, n words of scratch, in one pass over the block; a value is
   the lowest bit its mask lacks (m < 64 moves set m bits at most). */
void scan_block(int64_t m, int64_t j, int64_t start, int64_t n,
                const int64_t *C, const uint8_t *const *cl,
                const int32_t *steps, const uint8_t *right,
                const uint8_t *prefix, uint64_t *mask, int8_t *out)
{
    int64_t size = C[m - j], off = start, rho = 0;
    for (int64_t i = 0; i < n; i++)  /* file 0's colon word is the word */
        mask[i] = end_bit(cl[m - 1][start + i]);
    /* word i from prefix file k on has rank off + i, and every word's
       reversed prefix up to k has rank rho */
    for (int64_t k = 0; k < j; k++) {
        rho += prefix[k] * C[k];
        uint8_t l = cl[k][rho];
        if (0 < k && k < m - 1 && !(l & 64))  /* else every move is loony */
            for (int64_t i = 0; i < n; i++)
                mask[i] |= interior_bit(l, cl[m - k - 1][off + i]);
        off -= prefix[k] * C[m - 1 - k];
    }
    for (int64_t k = j > 1 ? j : 1; k < m - 1; k++) {
        const uint8_t *l = cl[k] + rho, *r = right + (k - j) * size;
        const int32_t *step = steps + (k - j) * size;
        for (int64_t i = 0; i < n; i++)
            mask[i] |= interior_bit(l[step[i]], r[i]);
    }
    /* file m - 1's colon word is the reversed word (rho if j is m) */
    const uint8_t *rev = cl[m - 1] + rho;
    for (int64_t i = 0; i < n; i++)
        mask[i] |= end_bit(rev[j < m ? steps[(m - 1 - j) * size + i] : 0]);
    for (int64_t i = 0; i < n; i++)
        out[start + i] = (int8_t)__builtin_ctzll(~mask[i]);
}

/* Write CL[m], m >= 2, at the tails of ranks lo .. hi - 1 from eps, the
   values of length m - 1; tails below n_open = C[m - 1] start open.  The
   colon word of a stopped colon file has rank stopped + r, and its
   forced advance leaves the colon word tail[1:], of rank r in adv_u =
   CL[m - 2]; an open one's advance leaves tail, of rank r in adv. */
void scan_colon(int64_t lo, int64_t hi, int64_t n_open, int64_t stopped,
                const int8_t *eps, const uint8_t *adv, const uint8_t *adv_u,
                uint8_t *out)
{
    for (int64_t r = lo; r < hi; r++) {
        int open = r < n_open;
        int32_t cap = eps[open ? r : r - n_open];  /* tail[1:] */
        out[r] = (uint8_t)colon_entry(0, cap, adv[r], 0, open ? 192 : 128);
        if (open)
            out[stopped + r] = (uint8_t)colon_entry(1, cap, 0, adv_u[r], 192);
    }
}
