/* Flit-movement kernel of the vector backend.
 *
 * A line-for-line transliteration of repro/network/fabric.py's three
 * cycle phases (ejection, allocation, link traversal) over the
 * struct-of-arrays state laid out by repro/sim/vector/fabric.py.  Every
 * loop preserves the reference engine's iteration order, round-robin
 * bookkeeping and tie-breaking exactly, so a vector run is bit-identical
 * to a reference run.
 *
 * Id spaces (see fabric.py):
 *   virtual channel / sender id:  c in [0, NVC)       NVC = L * V
 *   injection sender id:          NVC + node * C + cls
 *   sink encoding in s_sink:      -1 unrouted, < NVC a VC id,
 *                                 >= NVC ejection port of node (id-NVC)
 *
 * Endpoint interactions are event-based: slot claims at the delivery
 * port are decided against the (free, reserved) queue mirror and
 * reported as EV_CLAIM events; tail-flit deliveries as EV_DELIVER;
 * injection-channel releases as EV_INJDONE.  k_step runs the three
 * phases of one cycle in one call and Python drains the event buffer
 * after it, applying the same mutations the reference fabric performs
 * inline (deliveries precede claims precede link events in the buffer,
 * matching the reference phase order).
 *
 * With the H_TRACE header flag set (a tracer is attached) allocation
 * also reports its other two outcomes, in frontier order between the
 * claims: EV_GRANT (third cell: the granted VC) for a VC grant and
 * EV_BLOCKED for every failed attempt — the calls the reference fabric
 * makes on its tracer, which de-duplicates them into blocked spans.
 *
 * With the H_STALL header flag set (a fault injector has stalled
 * something) the phases consult the stall mask, laid out [links |
 * routers | ejection ports]: a stalled link forwards nothing, a frozen
 * router's frontiers stay blocked without counting an allocation
 * failure, and a stalled port ejects nothing — the reference fabric's
 * stalled_links / stalled_routers / stalled_ejects.
 *
 * The route table (network/soa.py) is complete before the first cycle:
 * a missing (router, dst_router, class) key makes k_step return
 * K_ROUTE_MISS with the key in the header, and Python raises.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* hdr cells */
#define H_PN 0        /* pending count */
#define H_EVN 1       /* event count */
#define H_OCC 2       /* VC flit occupancy */
#define H_BUSYN 3     /* busy link count */
#define H_TRACE 4     /* nonzero: report EV_GRANT / EV_BLOCKED too */
#define H_STALL 5     /* nonzero: consult the stall mask */
#define H_MISS_R 6    /* key of a route-table miss (fatal; Python raises) */
#define H_MISS_DSTR 7
#define H_MISS_CLS 8
#define H_EV_OVF 11   /* event buffer overflowed (fatal; Python raises) */

/* int64 counters */
#define C_FORWARDED 0
#define C_INJECTED 1
#define C_EJECTED 2
#define C_ALLOCFAIL 3

/* k_step failure codes (event counts are >= 0) */
#define K_ROUTE_MISS (-1)
#define K_EVENT_OVERFLOW (-2)

/* events */
#define EV_CLAIM 1
#define EV_DELIVER 2
#define EV_INJDONE 3
#define EV_GRANT 4    /* traced only; third cell is the granted VC */
#define EV_BLOCKED 5  /* traced only; third cell is the router, not the sid */

typedef struct {
    /* dims */
    int32_t L, V, D, N, C, R, EPCAP, MAXCAND, EVCAP, SCAP, VCLS;
    int32_t NVC;      /* L * V */
    int32_t STRIDE;   /* route row stride = 3 + MAXCAND */
    /* state arrays (owned by Python/numpy) */
    int32_t *s_owner, *s_sink, *s_router;
    int32_t *v_count, *v_hp, *v_flit, *v_arr;
    int32_t *vc_dim, *vc_dateline;
    int32_t *m_size, *m_dst, *m_dstr, *m_vcls, *m_qcls, *m_hasres;
    int32_t *m_sent, *m_crossed, *m_hops, *m_blocked, *m_ejected;
    int32_t *ls_s, *ls_sink, *ls_inj, *ls_n, *l_rr;
    int32_t *busy_order, *busy_in;
    int32_t *ep_s, *ep_n, *ep_rr;
    int32_t *pending, *still;
    int32_t *qm_free, *qm_res;
    int32_t *rk_idx, *rows;
    int32_t *ev;
    int32_t *inj_used;
    int32_t *stall;   /* L link + R router + N port flags */
    int32_t *hdr;
    int64_t *cnt;
} KState;

static void emit(KState *k, int32_t type, int32_t vid, int32_t sid)
{
    int32_t n = k->hdr[H_EVN];
    if (n >= k->EVCAP) {
        k->hdr[H_EV_OVF] = 1;
        return;
    }
    int32_t *e = k->ev + 3 * n;
    e[0] = type;
    e[1] = vid;
    e[2] = sid;
    k->hdr[H_EVN] = n + 1;
}

void *k_new(const int64_t *ptrs, const int32_t *dims)
{
    KState *k = (KState *)calloc(1, sizeof(KState));
    if (!k)
        return NULL;
    k->L = dims[0];
    k->V = dims[1];
    k->D = dims[2];
    k->N = dims[3];
    k->C = dims[4];
    k->R = dims[5];
    k->EPCAP = dims[6];
    k->MAXCAND = dims[7];
    k->EVCAP = dims[8];
    k->SCAP = dims[9];
    k->VCLS = dims[10];
    k->NVC = k->L * k->V;
    k->STRIDE = 3 + k->MAXCAND;
    int i = 0;
    k->s_owner = (int32_t *)(intptr_t)ptrs[i++];
    k->s_sink = (int32_t *)(intptr_t)ptrs[i++];
    k->s_router = (int32_t *)(intptr_t)ptrs[i++];
    k->v_count = (int32_t *)(intptr_t)ptrs[i++];
    k->v_hp = (int32_t *)(intptr_t)ptrs[i++];
    k->v_flit = (int32_t *)(intptr_t)ptrs[i++];
    k->v_arr = (int32_t *)(intptr_t)ptrs[i++];
    k->vc_dim = (int32_t *)(intptr_t)ptrs[i++];
    k->vc_dateline = (int32_t *)(intptr_t)ptrs[i++];
    k->m_size = (int32_t *)(intptr_t)ptrs[i++];
    k->m_dst = (int32_t *)(intptr_t)ptrs[i++];
    k->m_dstr = (int32_t *)(intptr_t)ptrs[i++];
    k->m_vcls = (int32_t *)(intptr_t)ptrs[i++];
    k->m_qcls = (int32_t *)(intptr_t)ptrs[i++];
    k->m_hasres = (int32_t *)(intptr_t)ptrs[i++];
    k->m_sent = (int32_t *)(intptr_t)ptrs[i++];
    k->m_crossed = (int32_t *)(intptr_t)ptrs[i++];
    k->m_hops = (int32_t *)(intptr_t)ptrs[i++];
    k->m_blocked = (int32_t *)(intptr_t)ptrs[i++];
    k->m_ejected = (int32_t *)(intptr_t)ptrs[i++];
    k->ls_s = (int32_t *)(intptr_t)ptrs[i++];
    k->ls_sink = (int32_t *)(intptr_t)ptrs[i++];
    k->ls_inj = (int32_t *)(intptr_t)ptrs[i++];
    k->ls_n = (int32_t *)(intptr_t)ptrs[i++];
    k->l_rr = (int32_t *)(intptr_t)ptrs[i++];
    k->busy_order = (int32_t *)(intptr_t)ptrs[i++];
    k->busy_in = (int32_t *)(intptr_t)ptrs[i++];
    k->ep_s = (int32_t *)(intptr_t)ptrs[i++];
    k->ep_n = (int32_t *)(intptr_t)ptrs[i++];
    k->ep_rr = (int32_t *)(intptr_t)ptrs[i++];
    k->pending = (int32_t *)(intptr_t)ptrs[i++];
    k->still = (int32_t *)(intptr_t)ptrs[i++];
    k->qm_free = (int32_t *)(intptr_t)ptrs[i++];
    k->qm_res = (int32_t *)(intptr_t)ptrs[i++];
    k->rk_idx = (int32_t *)(intptr_t)ptrs[i++];
    k->rows = (int32_t *)(intptr_t)ptrs[i++];
    k->ev = (int32_t *)(intptr_t)ptrs[i++];
    k->inj_used = (int32_t *)(intptr_t)ptrs[i++];
    k->stall = (int32_t *)(intptr_t)ptrs[i++];
    k->hdr = (int32_t *)(intptr_t)ptrs[i++];
    k->cnt = (int64_t *)(intptr_t)ptrs[i++];
    return k;
}

void k_free(void *h)
{
    free(h);
}

/* --------------------------------------------------------------------
 * Phase 1: ejection — one flit per active port, node-ascending.
 * Mirrors Fabric._phase_eject + EjectionPort.step.
 * ------------------------------------------------------------------ */
static void k_eject(void *h, int32_t now)
{
    KState *k = (KState *)h;
    const int32_t NVC = k->NVC, D = k->D, EPCAP = k->EPCAP;
    const int32_t *stalled = k->hdr[H_STALL] ? k->stall + k->L + k->R : NULL;
    for (int32_t node = 0; node < k->N; node++) {
        int32_t n = k->ep_n[node];
        if (n == 0 || (stalled && stalled[node]))
            continue;
        int32_t *eps = k->ep_s + (int64_t)node * EPCAP;
        int32_t start = k->ep_rr[node] % n;
        for (int32_t i = 0; i < n; i++) {
            int32_t idx = start + i;
            if (idx >= n)
                idx -= n;
            int32_t sid = eps[idx];
            int32_t vid = k->s_owner[sid];
            int32_t flit;
            if (sid >= NVC) { /* injection channel delivering locally */
                flit = k->m_sent[vid];
                if (flit >= k->m_size[vid])
                    continue;
                k->m_sent[vid] = flit + 1;
            } else {
                if (k->v_count[sid] == 0)
                    continue;
                int32_t p = k->v_hp[sid];
                if (k->v_arr[(int64_t)sid * D + p] >= now)
                    continue;
                flit = k->v_flit[(int64_t)sid * D + p];
                k->v_hp[sid] = (p + 1 == D) ? 0 : p + 1;
                k->v_count[sid]--;
                k->hdr[H_OCC]--;
            }
            k->cnt[C_EJECTED]++;
            k->m_ejected[vid]++;
            if (flit == k->m_size[vid] - 1) { /* tail: delivered */
                k->s_owner[sid] = -1;
                k->s_sink[sid] = -1;
                n--;
                for (int32_t j = idx; j < n; j++)
                    eps[j] = eps[j + 1];
                k->ep_n[node] = n;
                emit(k, EV_DELIVER, vid, sid);
            }
            /* post-removal length, exactly as EjectionPort.step */
            {
                int32_t m = k->ep_n[node];
                k->ep_rr[node] = (start + i + 1) % (m > 0 ? m : 1);
            }
            break; /* one flit per port per cycle */
        }
    }
}

/* --------------------------------------------------------------------
 * Phase 2: allocation — route/VC allocation or delivery-slot claim for
 * every frontier.  Mirrors Fabric._phase_allocate; returns 2 on a
 * route-table miss (see the header comment), else 0.
 *
 * A route row is [count, escape id for dateline class 0, escape id for
 * dateline class 1, adaptive candidate ids...], keyed by (router,
 * dst_router, class) only: the packet's dateline mask picks the escape
 * id, by Routing.static_candidate_ids's rule — class 1 when the escape
 * link crosses the dateline or the packet already crossed one in that
 * link's dimension.  Both ids lie on the same link, so the class-0 id
 * answers vc_dateline / vc_dim.
 * ------------------------------------------------------------------ */
static int32_t k_alloc(void *h, int32_t now)
{
    KState *k = (KState *)h;
    const int32_t NVC = k->NVC, V = k->V, C = k->C, EPCAP = k->EPCAP;
    const int32_t R = k->R, VCLS = k->VCLS;
    const int32_t STRIDE = k->STRIDE;
    const int32_t trace = k->hdr[H_TRACE];
    const int32_t *frozen = k->hdr[H_STALL] ? k->stall + k->L : NULL;
    int32_t pn = k->hdr[H_PN];
    int32_t sn = 0;
    for (int32_t i = 0; i < pn; i++) {
        int32_t sid = k->pending[i];
        int32_t vid = k->s_owner[sid];
        if (vid < 0)
            continue; /* rescued or otherwise detached meanwhile */
        if (k->s_sink[sid] >= 0)
            continue; /* already routed */
        int32_t dstr = k->m_dstr[vid];
        int32_t r = k->s_router[sid];
        if (frozen && frozen[r]) {
            /* a fault victim, not contention: no allocation failure */
            if (k->m_blocked[vid] < 0)
                k->m_blocked[vid] = now;
            if (trace)
                emit(k, EV_BLOCKED, vid, r);
            k->still[sn++] = sid;
            continue;
        }
        if (r == dstr) {
            int32_t node = k->m_dst[vid];
            int32_t qi = node * C + k->m_qcls[vid];
            int32_t ok;
            if (k->m_hasres[vid] && k->qm_res[qi] > 0) {
                k->qm_res[qi]--; /* held++ / reserved--: free unchanged */
                ok = 1;
            } else if (k->qm_free[qi] > 0) {
                k->qm_free[qi]--; /* held++ */
                ok = 1;
            } else {
                ok = 0;
            }
            if (ok) {
                k->ep_s[(int64_t)node * EPCAP + k->ep_n[node]] = sid;
                k->ep_n[node]++;
                k->s_sink[sid] = NVC + node;
                k->m_blocked[vid] = -1;
                emit(k, EV_CLAIM, vid, sid);
                continue;
            }
        } else {
            int32_t row = k->rk_idx[(r * R + dstr) * VCLS + k->m_vcls[vid]];
            if (row < 0) {
                k->hdr[H_MISS_R] = r;
                k->hdr[H_MISS_DSTR] = dstr;
                k->hdr[H_MISS_CLS] = k->m_vcls[vid];
                return 2;
            }
            const int32_t *rp = k->rows + (int64_t)row * STRIDE;
            int32_t na = rp[0];
            /* first free adaptive candidate with minimal buffered flits
             * (== the reference's stable sort by fifo length) */
            int32_t best = -1, bc = 0x7fffffff;
            for (int32_t j = 0; j < na; j++) {
                int32_t c = rp[3 + j];
                if (k->s_owner[c] < 0) {
                    int32_t cc = k->v_count[c];
                    if (cc < bc) {
                        bc = cc;
                        best = c;
                    }
                }
            }
            int32_t esc = rp[1];
            if (best < 0 && esc >= 0) {
                if (k->vc_dateline[esc]
                    | ((k->m_crossed[vid] >> k->vc_dim[esc]) & 1))
                    esc = rp[2];
                if (k->s_owner[esc] < 0)
                    best = esc;
            }
            if (best >= 0) {
                k->s_owner[best] = vid;
                k->s_sink[sid] = best;
                int32_t lid = best / V;
                int32_t pos = lid * V + k->ls_n[lid];
                k->ls_s[pos] = sid;
                k->ls_sink[pos] = best;
                k->ls_inj[pos] = (sid >= NVC);
                k->ls_n[lid]++;
                if (!k->busy_in[lid]) {
                    k->busy_in[lid] = 1;
                    k->busy_order[k->hdr[H_BUSYN]++] = lid;
                }
                k->m_blocked[vid] = -1;
                if (trace)
                    emit(k, EV_GRANT, vid, best);
                continue;
            }
        }
        /* blocked: stamp the start of the blocked episode */
        if (k->m_blocked[vid] < 0)
            k->m_blocked[vid] = now;
        k->cnt[C_ALLOCFAIL]++;
        if (trace)
            emit(k, EV_BLOCKED, vid, r);
        k->still[sn++] = sid;
    }
    /* rotate for fairness, exactly as the reference */
    if (sn > 1) {
        int32_t tmp = k->still[0];
        memmove(k->still, k->still + 1, (size_t)(sn - 1) * sizeof(int32_t));
        k->still[sn - 1] = tmp;
    }
    memcpy(k->pending, k->still, (size_t)sn * sizeof(int32_t));
    k->hdr[H_PN] = sn;
    return 0;
}

/* --------------------------------------------------------------------
 * Phase 3: link traversal — one flit per busy link, round-robin.
 * Mirrors Fabric._phase_links.
 * ------------------------------------------------------------------ */
static void k_links(void *h, int32_t now)
{
    KState *k = (KState *)h;
    const int32_t NVC = k->NVC, V = k->V, D = k->D, C = k->C;
    const int32_t *stalled = k->hdr[H_STALL] ? k->stall : NULL;
    memset(k->inj_used, 0, (size_t)k->N * sizeof(int32_t));
    int32_t busyn = k->hdr[H_BUSYN];
    int64_t forwarded = 0, injected = 0;
    for (int32_t b = 0; b < busyn; b++) {
        int32_t lid = k->busy_order[b];
        if (stalled && stalled[lid])
            continue; /* stays busy, in its place */
        int32_t n = k->ls_n[lid];
        if (n == 0) {
            k->busy_in[lid] = 0;
            continue;
        }
        int32_t *lss = k->ls_s + lid * V;
        int32_t *lssink = k->ls_sink + lid * V;
        int32_t *lsinj = k->ls_inj + lid * V;
        int32_t start = k->l_rr[lid] % n;
        for (int32_t i = 0; i < n; i++) {
            int32_t idx = start + i;
            if (idx >= n)
                idx -= n;
            int32_t sink = lssink[idx];
            if (k->v_count[sink] >= D)
                continue; /* sink full */
            int32_t sid = lss[idx];
            int32_t vid = k->s_owner[sid];
            int32_t flit;
            if (lsinj[idx]) {
                flit = k->m_sent[vid];
                if (flit >= k->m_size[vid])
                    continue;
                int32_t node = (sid - NVC) / C;
                if (k->inj_used[node])
                    continue;
                k->inj_used[node] = 1;
                k->m_sent[vid] = flit + 1;
                injected++;
            } else {
                if (k->v_count[sid] == 0)
                    continue;
                int32_t p = k->v_hp[sid];
                if (k->v_arr[(int64_t)sid * D + p] >= now)
                    continue; /* one-cycle minimum per hop */
                flit = k->v_flit[(int64_t)sid * D + p];
                k->v_hp[sid] = (p + 1 == D) ? 0 : p + 1;
                k->v_count[sid]--;
                k->hdr[H_OCC]--;
            }
            /* accept into the sink ring */
            {
                int32_t c = k->v_count[sink];
                int32_t q = k->v_hp[sink] + c;
                if (q >= D)
                    q -= D;
                k->v_flit[(int64_t)sink * D + q] = flit;
                k->v_arr[(int64_t)sink * D + q] = now;
                k->v_count[sink] = c + 1;
                k->hdr[H_OCC]++;
            }
            forwarded++;
            if (flit == 0) {
                /* header advanced one hop: dateline state + new frontier */
                k->m_hops[vid]++;
                if (k->vc_dateline[sink])
                    k->m_crossed[vid] |= 1 << k->vc_dim[sink];
                k->pending[k->hdr[H_PN]++] = sink;
                k->m_blocked[vid] = now;
            }
            if (flit == k->m_size[vid] - 1) {
                /* tail departed: free the sender behind the packet */
                n--;
                for (int32_t j = idx; j < n; j++) {
                    lss[j] = lss[j + 1];
                    lssink[j] = lssink[j + 1];
                    lsinj[j] = lsinj[j + 1];
                }
                k->ls_n[lid] = n;
                k->s_owner[sid] = -1;
                k->s_sink[sid] = -1;
                if (sid >= NVC)
                    emit(k, EV_INJDONE, vid, sid);
                if (n > 0) {
                    k->l_rr[lid] = (idx < n) ? idx : 0;
                } else {
                    k->l_rr[lid] = 0;
                    k->busy_in[lid] = 0;
                }
            } else {
                k->l_rr[lid] = (idx + 1 < n) ? idx + 1 : 0;
            }
            break; /* one flit per link per cycle */
        }
    }
    k->cnt[C_FORWARDED] += forwarded;
    k->cnt[C_INJECTED] += injected;
    /* compact busy_order, preserving first-busy order */
    {
        int32_t w = 0;
        for (int32_t b = 0; b < busyn; b++) {
            int32_t lid = k->busy_order[b];
            if (k->busy_in[lid])
                k->busy_order[w++] = lid;
        }
        /* links that became busy during this phase's header advances
         * cannot exist (allocation is the only producer), but keep any
         * trailing entries appended after the snapshot anyway */
        int32_t total = k->hdr[H_BUSYN];
        for (int32_t b = busyn; b < total; b++)
            k->busy_order[w++] = k->busy_order[b];
        k->hdr[H_BUSYN] = w;
    }
}

/* --------------------------------------------------------------------
 * One cycle: the three phases in reference order.  Returns the number
 * of events left in the buffer for Python to drain, K_ROUTE_MISS on a
 * route-table miss (key in the header) or K_EVENT_OVERFLOW when the
 * event buffer was too small; both are fatal and Python raises.
 * ------------------------------------------------------------------ */
int32_t k_step(void *h, int32_t now)
{
    KState *k = (KState *)h;
    k->hdr[H_EVN] = 0;
    k_eject(h, now);
    if (k_alloc(h, now) == 2)
        return K_ROUTE_MISS;
    k_links(h, now);
    if (k->hdr[H_EV_OVF])
        return K_EVENT_OVERFLOW;
    return k->hdr[H_EVN];
}

/* --------------------------------------------------------------------
 * Introspection for progressive recovery.
 * ------------------------------------------------------------------ */

/* First-minimal blocked_since frontier at `router` over `threshold`,
 * for VectorFabric.longest_blocked. */
int32_t k_longest_blocked(void *h, int32_t router, int32_t now,
                          int32_t threshold)
{
    KState *k = (KState *)h;
    int32_t pn = k->hdr[H_PN];
    int32_t best = -1, best_since = 0;
    for (int32_t i = 0; i < pn; i++) {
        int32_t sid = k->pending[i];
        int32_t vid = k->s_owner[sid];
        if (vid < 0 || k->s_sink[sid] >= 0)
            continue;
        int32_t since = k->m_blocked[vid];
        if (since < 0)
            continue;
        if (k->s_router[sid] != router)
            continue;
        if (now - since > threshold && (best < 0 || since < best_since)) {
            best = sid;
            best_since = since;
        }
    }
    return best;
}

/* Remove the first occurrence of `sid` from pending (rescue detach). */
void k_detach(void *h, int32_t sid)
{
    KState *k = (KState *)h;
    int32_t pn = k->hdr[H_PN];
    for (int32_t i = 0; i < pn; i++) {
        if (k->pending[i] == sid) {
            memmove(k->pending + i, k->pending + i + 1,
                    (size_t)(pn - 1 - i) * sizeof(int32_t));
            k->hdr[H_PN] = pn - 1;
            return;
        }
    }
}
