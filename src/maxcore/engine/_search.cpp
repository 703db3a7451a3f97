// Compiled CDCL search kernel: the CPython extension maxcore.engine._search.
//
// SearchCore runs the search of _search_py.py step for step on C++ vectors, so
// both kernels call the same propagators at the same fixpoints and return
// identical statuses, models, cores, counters, learnt clauses and
// explanations on identical input (tests/test_kernels.py checks it).  Any
// behavioural change there must be made here too.  Activities are doubles
// updated in the same order as Python floats there, so this file must not be
// built with fast-math.
//
// As there, one SearchCore solves again and again: extend() adds variables,
// problem clauses and propagators between solves, learnt clauses, activities,
// phases, var_inc and cla_inc carry over, and each solve starts from an empty
// trail (reset()) and assigns every unit clause at level 0, which it
// propagates to a fixpoint whenever the assumptions level is about to open; a
// backjump, to the root too, leaves only the wake_on None propagators pending.
// A flag per clause tells learnt clauses apart, since problem clauses that
// extend() adds follow them in the arena.  The arena's layout differs: here
// one flat literal vector with an offset and a length per clause, there one
// list per clause.  What both kernels share is the order of the clauses, of
// the literals within each clause (bcp swaps them as _bcp does) and of each
// watch list.  The clause arena and the watch lists hold only problem clauses
// and live learnt clauses, since a reduction compacts the arena as there, and
// a propagator's inference is a reason record: the implied literal (0 for a
// fail) and the negated reason, stored once for a run of equal reasons.  A
// reference r is clause r when r >= 0, no reason when r == -1, and record
// -2 - r when r <= -2.  The solve result hands the records over as data, the
// pair (heads, negs) under the key "records", as there: heads is a
// memoryview copy of the implied literals, so its length is the record
// count, and negs is a FlatNegs (_search_py.py) over memoryview copies of the
// offsets, lengths and literals of the negated reasons.
// _search_py.explanations builds the explanation clauses from the pair.
//
// Decisions pop the same lazy heap of (-activity, var) entries as there, kept
// with std::push_heap and std::pop_heap beside a queued flag per variable.
//
// Integer bounds are kernel state, kept as there: every registered order
// literal [x >= v] maps its variable to (x, v), an assignment of one that
// moves a bound replaces x.cur with PyObject_SetAttr and pushes an undo
// entry (trail position, x, old tuple), and unassign() puts the old tuples
// back.  A failed read or write of x.cur sets bound_failed, and the solve
// then raises at its next check.
//
// setup.py passes the SHA-256 of this file in as SOURCE_SHA256, and the
// module exports it, so that maxcore.engine can refuse a build of another
// version of this file.

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstring>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#ifndef SOURCE_SHA256
#define SOURCE_SHA256 ""  // built without setup.py: matches no source
#endif

namespace {

const int NO_REASON = -1;
const int RAISED = INT_MIN;  // propagate_all: a propagator raised

const double VAR_DECAY = 0.95;
const double CLAUSE_DECAY = 0.999;
const double RESTART_BASE = 100;
const double RESTART_MULT = 1.5;
const int LEARNT_CAP_MIN = 4000;

PyObject *integrity_error;  // maxcore.engine.errors.EngineIntegrityError
PyObject *flat_negs;        // maxcore.engine._search_py.FlatNegs
PyObject *str_propagate;
PyObject *str_wake_on;
PyObject *str_cur;
PyObject *str_lb0;
PyObject *str_ub0;

inline int var_of(int lit) { return lit > 0 ? lit : -lit; }

// the reference of record k, and the record of a reference r <= -2
inline int record_ref(int k) { return -2 - k; }
inline int record_of(int ref) { return -2 - ref; }

// watch-list slot of a literal
inline int windex(int lit) { return lit > 0 ? 2 * lit : -2 * lit + 1; }

// the clock of Python's time.monotonic()
double monotonic() {
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// cores are sorted by variable, then sign
void sort_core(std::vector<int> &core) {
    std::sort(core.begin(), core.end(), [](int a, int b) {
        return var_of(a) != var_of(b) ? var_of(a) < var_of(b) : a < b;
    });
}

bool read_lit(PyObject *obj, int nvars, int &lit) {
    long v = PyLong_AsLong(obj);
    if (v == -1 && PyErr_Occurred())
        return false;
    if (v < -nvars || v > nvars) {
        PyErr_Format(PyExc_IndexError, "literal %ld out of range", v);
        return false;
    }
    lit = (int)v;
    return true;
}

// appends the literals of an iterable to out
bool read_lits(PyObject *iterable, int nvars, std::vector<int> &out) {
    PyObject *seq = PySequence_Fast(iterable, "literals must be iterable");
    if (!seq)
        return false;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    size_t base = out.size();
    out.resize(base + n);
    bool ok = true;
    for (Py_ssize_t i = 0; ok && i < n; i++)
        ok = read_lit(PySequence_Fast_GET_ITEM(seq, i), nvars, out[base + i]);
    Py_DECREF(seq);
    return ok;
}

PyObject *int_list(const int *p, Py_ssize_t n) {
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out && i < n; i++) {
        PyObject *v = PyLong_FromLong(p[i]);
        if (!v) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

PyObject *int_tuple(const int *p, Py_ssize_t n) {
    PyObject *out = PyTuple_New(n);
    for (Py_ssize_t i = 0; out && i < n; i++) {
        PyObject *v = PyLong_FromLong(p[i]);
        if (!v) {
            Py_CLEAR(out);
            break;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

// a memoryview of C ints over a copy of v
PyObject *int_view(const std::vector<int> &v) {
    PyObject *bytes = PyBytes_FromStringAndSize((const char *)v.data(),
                                                (Py_ssize_t)(v.size() * sizeof(int)));
    PyObject *raw = bytes ? PyMemoryView_FromObject(bytes) : nullptr;
    PyObject *out = raw ? PyObject_CallMethod(raw, "cast", "s", "i") : nullptr;
    Py_XDECREF(bytes);
    Py_XDECREF(raw);
    return out;
}

// reason records: record k implies head[k] (0 for a fail) from the negated
// reason lits[off[k] .. off[k] + len[k])
struct RecordStore {
    std::vector<int> head, off, len, lits;

    // appends a record; a reason equal to the last record's is shared
    int add(int implied, const int *reason, int n) {
        int k = (int)head.size();
        int at = (int)lits.size();
        if (k > 0 && len[k - 1] == n &&
            std::equal(reason, reason + n, lits.data() + off[k - 1]))
            at = off[k - 1];
        else
            lits.insert(lits.end(), reason, reason + n);
        head.push_back(implied);
        off.push_back(at);
        len.push_back(n);
        return record_ref(k);
    }

    // the records as the pair (heads, negs)
    PyObject *pair() const {
        PyObject *views[] = {int_view(head), int_view(off), int_view(len),
                             int_view(lits)};
        PyObject *negs = views[0] && views[1] && views[2] && views[3]
                             ? PyObject_CallFunctionObjArgs(flat_negs, views[1],
                                                            views[2], views[3], nullptr)
                             : nullptr;
        PyObject *out = negs ? PyTuple_Pack(2, views[0], negs) : nullptr;
        for (PyObject *v : views)
            Py_XDECREF(v);
        Py_XDECREF(negs);
        return out;
    }
};

struct Kernel {
    int nvars = 0;
    PyObject *view = nullptr;   // the SearchCore owning this kernel, borrowed
    PyObject *props = nullptr;  // list of propagators

    std::vector<int> values;  // per var: 0 unset, 1 true, -1 false
    std::vector<int> levels;
    std::vector<int> reasons;  // a reference, -1 for decisions/assumptions
    std::vector<char> phase;
    std::vector<double> activity;
    std::vector<char> seen;
    std::vector<int> trail;
    std::vector<int> trail_lim;
    size_t qhead = 0;

    // flat literal arena; slots off, off+1 are watched.  Problem clauses
    // that extend() adds follow the learnt clauses of earlier solves, so
    // c_learnt flags the learnt ones.
    std::vector<int> db;
    std::vector<int> c_off;
    std::vector<int> c_len;
    std::vector<double> c_act;
    std::vector<char> c_learnt;
    std::vector<int> units;  // the clauses of one literal, in order
    std::vector<std::vector<int>> watches;
    RecordStore records;

    int n_problem = 0;  // problem clauses; the rest are learnt
    int learnt_cap = 0;
    int first_learnt = 0;  // the first clause the current solve learnt

    double var_inc = 1.0;
    double cla_inc = 1.0;
    std::vector<std::pair<double, int>> heap;  // (-activity, var) entries
    std::vector<char> queued;  // per var: the heap holds a live entry

    long long conflicts = 0;
    long long decisions = 0;
    long long propagations = 0;
    long long restarts = 0;

    bool prop_enqueued = false;
    int prop_conflict = -1;

    // wake rule: wakers[windex(lit)] lists the propagators that watch lit;
    // a propagator whose wake_on is None stays pending for good
    std::vector<char> always;
    std::vector<char> pending;
    std::vector<std::vector<int>> wakers;
    std::vector<int> woken;  // the windex of every non-empty wakers list

    std::vector<int> learnt, to_clear, expl;  // scratch

    // integer bounds: order_var[var] is the IntVar x of the order literal
    // [x >= order_value[var]] that var is, or null; order_ints owns them
    PyObject *order_ints = nullptr;
    std::vector<PyObject *> order_var;
    std::vector<int> order_value;
    struct BoundUndo {
        size_t pos;     // the trail position of the literal that moved it
        PyObject *x;    // borrowed from order_ints
        PyObject *old;  // x.cur before the move, owned
    };
    std::vector<BoundUndo> bound_undo;
    bool bound_failed = false;  // x.cur could not be read or written

    // grows the kernel to n variables and adds the problem clauses, the
    // propagators and the order literals; reads every propagator's wake_on
    // again
    bool extend(int n, PyObject *clauses, PyObject *propagators,
                PyObject *order_literals) {
        int old = nvars;
        nvars = n;
        int n1 = n + 1;
        values.resize(n1, 0);
        levels.resize(n1, 0);
        reasons.resize(n1, -1);
        phase.resize(n1, 0);
        activity.resize(n1, 0.0);
        seen.resize(n1, 0);
        watches.resize(2 * n1);
        // a new variable has activity 0 and the highest id: no entry sorts
        // after its own, so appending keeps the heap a heap
        queued.resize(n1, 1);
        queued[0] = 0;
        for (int v = old + 1; v < n1; v++)
            heap.push_back({-0.0, v});
        order_var.resize(n1, nullptr);
        order_value.resize(n1, 0);
        if (order_literals && !register_orders(order_literals))
            return false;
        PyObject *seq = PySequence_Fast(clauses, "clauses must be a sequence");
        if (!seq)
            return false;
        std::vector<int> lits;
        for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
            lits.clear();
            if (!read_lits(PySequence_Fast_GET_ITEM(seq, i), nvars, lits)) {
                Py_DECREF(seq);
                return false;
            }
            add_clause(lits, false);
            n_problem++;
        }
        Py_DECREF(seq);
        learnt_cap = std::max(LEARNT_CAP_MIN, 2 * n_problem);
        PyObject *grown = PySequence_InPlaceConcat(props, propagators);
        if (!grown)
            return false;
        Py_DECREF(grown);
        return read_wakes();
    }

    // takes (literal, IntVar, value) triples; sets each IntVar's cur to
    // (lb0, None, ub0, None)
    bool register_orders(PyObject *order_literals) {
        PyObject *seq = PySequence_Fast(order_literals,
                                        "order literals must be a sequence");
        if (!seq)
            return false;
        bool ok = true;
        for (Py_ssize_t i = 0; ok && i < PySequence_Fast_GET_SIZE(seq); i++) {
            int lit, value;
            PyObject *x;
            ok = PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, i), "iOi", &lit, &x,
                                  &value);
            if (ok && (lit <= 0 || lit > nvars)) {
                PyErr_Format(PyExc_ValueError, "order literal %d out of range", lit);
                ok = false;
            }
            ok = ok && PyList_Append(order_ints, x) == 0 && reset_bounds(x);
            if (ok) {
                order_var[lit] = x;
                order_value[lit] = value;
            }
        }
        Py_DECREF(seq);
        return ok;
    }

    static bool reset_bounds(PyObject *x) {
        PyObject *lb = PyObject_GetAttr(x, str_lb0);
        PyObject *ub = lb ? PyObject_GetAttr(x, str_ub0) : nullptr;
        PyObject *cur = ub ? PyTuple_Pack(4, lb, Py_None, ub, Py_None) : nullptr;
        bool ok = cur && PyObject_SetAttr(x, str_cur, cur) == 0;
        Py_XDECREF(lb);
        Py_XDECREF(ub);
        Py_XDECREF(cur);
        return ok;
    }

    // reads each propagator's wake_on; the table grows by the new
    // literals, and only the lists that woken names are cleared first
    bool read_wakes() {
        Py_ssize_t n = PyList_GET_SIZE(props);
        always.assign(n, 0);
        pending.assign(n, 1);
        for (int wi : woken)
            wakers[wi].clear();
        woken.clear();
        wakers.resize(watches.size());
        std::vector<int> lits;
        for (Py_ssize_t pi = 0; pi < n; pi++) {
            PyObject *wake_on = PyObject_GetAttr(PyList_GET_ITEM(props, pi), str_wake_on);
            if (!wake_on)
                return false;
            always[pi] = wake_on == Py_None;
            lits.clear();
            bool ok = always[pi] || read_lits(wake_on, nvars, lits);
            Py_DECREF(wake_on);
            if (!ok)
                return false;
            for (int lit : lits) {
                std::vector<int> &w = wakers[windex(lit)];
                if (w.empty())
                    woken.push_back(windex(lit));
                if (w.empty() || w.back() != pi)
                    w.push_back((int)pi);
            }
        }
        return true;
    }

    // ------------------------------------------------------------------
    // clause arena

    int add_clause(const std::vector<int> &lits, bool learnt) {
        int ci = (int)c_off.size();
        c_off.push_back((int)db.size());
        c_len.push_back((int)lits.size());
        c_act.push_back(0.0);
        c_learnt.push_back(learnt);
        db.insert(db.end(), lits.begin(), lits.end());
        if (lits.size() >= 2) {
            watches[windex(lits[0])].push_back(ci);
            watches[windex(lits[1])].push_back(ci);
        } else {
            units.push_back(ci);
        }
        return ci;
    }

    // the literals of a clause or record, an enqueue's implied literal first
    std::vector<int> lits_of(int ref) const {
        if (ref >= 0)
            return std::vector<int>(db.data() + c_off[ref],
                                    db.data() + c_off[ref] + c_len[ref]);
        int k = record_of(ref);
        const int *reason = records.lits.data() + records.off[k];
        std::vector<int> out;
        if (records.head[k] != 0)
            out.push_back(records.head[k]);
        out.insert(out.end(), reason, reason + records.len[k]);
        return out;
    }

    // ------------------------------------------------------------------
    // assignment primitives

    int lit_value(int lit) const { return lit > 0 ? values[lit] : -values[-lit]; }

    void assign(int lit, int reason) {
        int var = var_of(lit);
        if (order_var[var])
            move_bound(lit, var);
        values[var] = lit > 0 ? 1 : -1;
        for (int pi : wakers[windex(lit)])
            pending[pi] = 1;
        levels[var] = (int)trail_lim.size();
        reasons[var] = reason;
        trail.push_back(lit);
        if (reason != NO_REASON)
            propagations++;
    }

    // lit, about to enter the trail, sets the order literal [x >= v] of
    // var; x.cur changes if that moves a bound of x
    void move_bound(int lit, int var) {
        if (bound_failed)
            return;
        PyObject *x = order_var[var];
        int v = order_value[var];
        int side = lit > 0 ? 0 : 2;  // cur[side], cur[side + 1]: bound, witness
        PyObject *cur = PyObject_GetAttr(x, str_cur);
        if (cur && !(PyTuple_Check(cur) && PyTuple_GET_SIZE(cur) == 4)) {
            PyErr_SetString(PyExc_TypeError, "IntVar.cur must be a 4-tuple");
            Py_CLEAR(cur);
        }
        long b = cur ? PyLong_AsLong(PyTuple_GET_ITEM(cur, side)) : 0;
        if (!cur || (b == -1 && PyErr_Occurred())) {
            Py_XDECREF(cur);
            bound_failed = true;
            return;
        }
        if (lit > 0 ? v <= b : v > b) {
            Py_DECREF(cur);
            return;
        }
        PyObject *next = PyTuple_New(4);
        for (int k = 0; next && k < 4; k++) {
            PyObject *item = k == side       ? PyLong_FromLong(lit > 0 ? v : v - 1)
                             : k == side + 1 ? PyLong_FromLong(lit)
                                             : Py_NewRef(PyTuple_GET_ITEM(cur, k));
            if (!item)
                Py_CLEAR(next);
            else
                PyTuple_SET_ITEM(next, k, item);
        }
        if (!next || PyObject_SetAttr(x, str_cur, next) < 0) {
            Py_XDECREF(next);
            Py_DECREF(cur);
            bound_failed = true;
            return;
        }
        Py_DECREF(next);
        bound_undo.push_back({trail.size(), x, cur});
    }

    void new_level() { trail_lim.push_back((int)trail.size()); }

    void backjump(int level) {
        if ((int)trail_lim.size() <= level)
            return;
        int bound = trail_lim[level];
        // the trail it keeps was a fixpoint of every propagator
        if (bound < (int)trail.size())
            pending = always;
        unassign(bound);
        trail_lim.resize(level);
    }

    // unassigns the trail from position bound on, saving phases, and puts
    // back the integer bounds from before it
    void unassign(int bound) {
        while (!bound_undo.empty() && bound_undo.back().pos >= (size_t)bound) {
            BoundUndo &u = bound_undo.back();
            if (!bound_failed && PyObject_SetAttr(u.x, str_cur, u.old) < 0)
                bound_failed = true;
            Py_DECREF(u.old);
            bound_undo.pop_back();
        }
        for (int k = (int)trail.size() - 1; k >= bound; k--) {
            int lit = trail[k];
            int var = var_of(lit);
            phase[var] = lit > 0;
            values[var] = 0;
            if (!queued[var]) {
                queued[var] = 1;
                heap.push_back({-activity[var], var});
                std::push_heap(heap.begin(), heap.end(), std::greater<>());
            }
        }
        trail.resize(bound);
        qhead = trail.size();
        if ((int)heap.size() > 2 * nvars)
            rebuild_heap();
    }

    // ------------------------------------------------------------------
    // activities

    // one live entry per unassigned variable, and nothing else
    void rebuild_heap() {
        heap.clear();
        for (int v = 1; v <= nvars; v++) {
            queued[v] = values[v] == 0;
            if (queued[v])
                heap.push_back({-activity[v], v});
        }
        std::make_heap(heap.begin(), heap.end(), std::greater<>());
    }

    // v is assigned, and its heap entry, if any, goes stale
    void bump_var(int v) {
        activity[v] += var_inc;
        queued[v] = 0;
        if (activity[v] > 1e100) {
            for (int u = 1; u <= nvars; u++)
                activity[u] *= 1e-100;
            var_inc *= 1e-100;
            rebuild_heap();
        }
    }

    void bump_clause(int ci) {
        c_act[ci] += cla_inc;
        if (c_act[ci] > 1e20) {
            for (double &a : c_act)
                a *= 1e-20;
            cla_inc *= 1e-20;
        }
    }

    // ------------------------------------------------------------------
    // propagation

    int bcp() {
        while (qhead < trail.size()) {
            int false_lit = -trail[qhead++];
            std::vector<int> &wl = watches[windex(false_lit)];
            for (int i = (int)wl.size() - 1; i >= 0; i--) {
                int ci = wl[i];
                int off = c_off[ci];
                if (db[off] == false_lit) {
                    db[off] = db[off + 1];
                    db[off + 1] = false_lit;
                }
                int first = db[off];
                int fv = lit_value(first);
                if (fv == 1)
                    continue;
                bool found = false;
                for (int k = off + 2; k < off + c_len[ci]; k++) {
                    if (lit_value(db[k]) != -1) {
                        db[off + 1] = db[k];
                        db[k] = false_lit;
                        watches[windex(db[off + 1])].push_back(ci);
                        wl[i] = wl.back();
                        wl.pop_back();
                        found = true;
                        break;
                    }
                }
                if (found)
                    continue;
                if (fv == -1)
                    return ci;
                assign(first, ci);
            }
        }
        return -1;
    }

    // the conflict's reference, -1 at a fixpoint, RAISED when a propagator
    // raised
    int propagate_all() {
        for (;;) {
            int confl = bcp();
            if (bound_failed)
                return RAISED;
            if (confl >= 0)
                return confl;
            bool progress = false;
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(props); i++) {
                if (!pending[i])
                    continue;
                pending[i] = always[i];
                prop_enqueued = false;
                prop_conflict = -1;
                PyObject *r = PyObject_CallMethodOneArg(
                    PyList_GET_ITEM(props, i), str_propagate, view);
                if (!r)
                    return RAISED;
                Py_DECREF(r);
                if (prop_conflict != -1)
                    return prop_conflict;
                if (prop_enqueued) {
                    progress = true;
                    break;
                }
            }
            if (!progress)
                return -1;
        }
    }

    // propagator-facing interface: expl holds the reason literals from
    // index `from` on; false with an error set if one of them is not true
    bool negate_reasons(size_t from, const char *what) {
        for (size_t k = from; k < expl.size(); k++) {
            if (lit_value(expl[k]) != 1) {
                PyErr_Format(integrity_error, "%s antecedent %d is not true",
                             what, expl[k]);
                return false;
            }
        }
        for (size_t k = from; k < expl.size(); k++)
            expl[k] = -expl[k];
        return true;
    }

    // ------------------------------------------------------------------
    // conflict analysis

    // fills learnt; the backjump level, or -1 with an error set
    int analyze(int confl) {
        learnt.assign(1, 0);
        to_clear.clear();
        int clevel = (int)trail_lim.size();
        int counter = 0;
        int p = 0;
        int idx = (int)trail.size() - 1;
        auto see = [&](int q) {
            int v = var_of(q);
            if (!seen[v] && levels[v] > 0) {
                seen[v] = 1;
                to_clear.push_back(v);
                bump_var(v);
                if (levels[v] >= clevel)
                    counter++;
                else
                    learnt.push_back(q);
            }
        };
        for (;;) {
            // the reason of p without p itself, or the whole conflict
            const int *lits;
            int n;
            if (confl >= 0) {
                if (c_learnt[confl])
                    bump_clause(confl);
                lits = db.data() + c_off[confl] + (p != 0);
                n = c_len[confl] - (p != 0);
            } else {
                int k = record_of(confl);
                if (p == 0 && records.head[k] != 0)
                    see(records.head[k]);
                lits = records.lits.data() + records.off[k];
                n = records.len[k];
            }
            for (int k = 0; k < n; k++)
                see(lits[k]);
            if (counter == 0) {
                // only a propagator can raise such a conflict: one it missed
                // at an earlier fixpoint
                PyErr_SetString(integrity_error,
                                "conflict has no literal at the conflict level");
                return -1;
            }
            while (!seen[var_of(trail[idx])])
                idx--;
            p = trail[idx--];
            confl = reasons[var_of(p)];
            seen[var_of(p)] = 0;
            if (--counter == 0)
                break;
        }
        learnt[0] = -p;
        for (int v : to_clear)
            seen[v] = 0;
        int bj = 0;
        if (learnt.size() > 1) {
            size_t best = 1;
            for (size_t k = 2; k < learnt.size(); k++)
                if (levels[var_of(learnt[k])] > levels[var_of(learnt[best])])
                    best = k;
            std::swap(learnt[1], learnt[best]);
            bj = levels[var_of(learnt[1])];
        }
        return bj;
    }

    // adds to core, sorted, every assumption at level > 0 that the literals
    // on stack rest on through their reasons
    void final_core(std::vector<int> stack, std::vector<int> &core) {
        std::vector<int> touched;
        while (!stack.empty()) {
            int u = var_of(stack.back());
            stack.pop_back();
            if (levels[u] == 0 || seen[u])
                continue;
            seen[u] = 1;
            touched.push_back(u);
            int r = reasons[u];
            if (r == NO_REASON) {
                core.push_back(values[u] * u);
            } else if (r >= 0) {
                stack.insert(stack.end(), db.data() + c_off[r],
                             db.data() + c_off[r] + c_len[r]);
            } else {
                const int *reason = records.lits.data() + records.off[record_of(r)];
                stack.insert(stack.end(), reason, reason + records.len[record_of(r)]);
            }
        }
        for (int u : touched)
            seen[u] = 0;
        sort_core(core);
    }

    // ------------------------------------------------------------------
    // learnt database reduction

    // drops the less active half of the learnt clauses that are no reason on
    // the trail, and compacts the arena
    void reduce_learnts() {
        int n = (int)c_off.size();
        std::vector<char> locked(n, 0);
        for (int lit : trail) {
            int r = reasons[var_of(lit)];
            if (r >= 0)
                locked[r] = 1;
        }
        std::vector<int> cands;
        for (int ci = 0; ci < n; ci++)
            if (c_learnt[ci] && !locked[ci])
                cands.push_back(ci);
        std::sort(cands.begin(), cands.end(), [this](int a, int b) {
            return c_act[a] != c_act[b] ? c_act[a] < c_act[b] : a < b;
        });
        std::vector<char> keep(n, 1);
        for (size_t k = 0; k < cands.size() / 2; k++)
            keep[cands[k]] = 0;
        // moved[ci] counts the clauses kept before ci: a kept ci moves there
        std::vector<int> moved(n + 1);
        int kept = 0, at = 0;
        for (int ci = 0; ci < n; ci++) {
            moved[ci] = kept;
            if (!keep[ci])
                continue;
            int off = c_off[ci], len = c_len[ci];
            for (int k = 0; k < len; k++)  // at <= off: a forward move
                db[at + k] = db[off + k];
            c_off[kept] = at;
            c_len[kept] = len;
            c_act[kept] = c_act[ci];
            c_learnt[kept] = c_learnt[ci];
            at += len;
            kept++;
        }
        moved[n] = kept;
        db.resize(at);
        c_off.resize(kept);
        c_len.resize(kept);
        c_act.resize(kept);
        c_learnt.resize(kept);
        for (int lit : trail) {
            int &r = reasons[var_of(lit)];
            if (r >= 0)
                r = moved[r];
        }
        size_t u = 0;
        for (int ci : units)
            if (keep[ci])
                units[u++] = moved[ci];
        units.resize(u);
        first_learnt = moved[first_learnt];
        rebuild_watches();
    }

    void rebuild_watches() {
        for (std::vector<int> &wl : watches)
            wl.clear();
        for (int ci = 0; ci < (int)c_off.size(); ci++) {
            if (c_len[ci] < 2)
                continue;
            watches[windex(db[c_off[ci]])].push_back(ci);
            watches[windex(db[c_off[ci] + 1])].push_back(ci);
        }
    }

    // ------------------------------------------------------------------
    // top level

    // all assumption literals enter one decision level before propagation;
    // true when one is already false, with its core filled in
    bool establish_assumptions(const std::vector<int> &assumptions,
                               std::vector<int> &core) {
        new_level();
        for (int a : assumptions) {
            int v = lit_value(a);
            if (v == 1)
                continue;
            if (v == -1) {
                core.push_back(a);
                final_core({a}, core);
                return true;
            }
            assign(a, -1);
        }
        return false;
    }

    PyObject *solve(const std::vector<int> &assumptions, bool has_budget,
                    double budget, bool has_deadline, double deadline) {
        double restart_limit = RESTART_BASE;
        long long conflicts_since_restart = 0;
        std::vector<int> core;
        reset();

        for (int ci : units) {
            int lit = db[c_off[ci]];
            int v = lit_value(lit);
            if (v == -1)
                return finish("unsat", &core);
            if (v == 0)
                assign(lit, ci);
        }

        for (;;) {
            if (trail_lim.empty()) {
                // level 0 is closed before the assumptions level opens
                int root = propagate_all();
                if (root == RAISED)
                    return nullptr;
                if (root != -1 || establish_assumptions(assumptions, core))
                    return finish("unsat", &core);
            }
            int confl = propagate_all();
            if (confl == RAISED)
                return nullptr;
            if (confl != -1) {
                conflicts++;
                conflicts_since_restart++;
                if (trail_lim.size() == 1) {
                    // every literal sits at the assumption level or below
                    final_core(lits_of(confl), core);
                    return finish("unsat", &core);
                }
                int bj = analyze(confl);
                if (bj < 0)
                    return nullptr;
                backjump(bj);
                int ci = add_clause(learnt, true);
                if (learnt.size() > 1)
                    c_act[ci] = cla_inc;
                assign(learnt[0], ci);
                var_inc /= VAR_DECAY;
                cla_inc /= CLAUSE_DECAY;
                if ((int)c_off.size() - n_problem >= learnt_cap)
                    reduce_learnts();
                if (has_budget && conflicts >= budget)
                    return finish("unknown", nullptr);
                if (has_deadline && monotonic() > deadline)
                    return finish("unknown", nullptr);
            } else {
                if (conflicts_since_restart >= restart_limit && trail_lim.size() > 1) {
                    conflicts_since_restart = 0;
                    restart_limit *= RESTART_MULT;
                    restarts++;
                    backjump(0);
                    continue;
                }
                if ((int)trail.size() == nvars)
                    return finish("sat", nullptr);
                // every unassigned variable has a live entry
                int var = 0;
                while (!var) {
                    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
                    auto [neg, v] = heap.back();
                    heap.pop_back();
                    if (neg == -activity[v]) {
                        queued[v] = 0;
                        if (values[v] == 0)
                            var = v;
                    }
                }
                decisions++;
                new_level();
                assign(phase[var] ? var : -var, -1);
            }
        }
    }

    // what a solve starts from: nothing assigned, not even at level 0
    // (phases are saved as a backjump saves them), no reason records, zero
    // counters and every propagator pending.  Learnt clauses, activities,
    // phases, var_inc and cla_inc stay.
    void reset() {
        unassign(0);
        trail_lim.clear();
        records = RecordStore();
        conflicts = decisions = propagations = restarts = 0;
        std::fill(pending.begin(), pending.end(), 1);
        first_learnt = (int)c_off.size();
    }

    // the result dict; a sat status carries the model, an unsat one the core
    PyObject *finish(const char *status, const std::vector<int> *core) {
        if (bound_failed)
            return nullptr;
        bool sat = std::strcmp(status, "sat") == 0;
        const char *keys[] = {"status", "model", "core", "conflicts", "decisions",
                              "propagations", "restarts", "learnts", "records"};
        PyObject *vals[] = {
            PyUnicode_FromString(status),
            sat ? int_list(values.data(), values.size()) : Py_NewRef(Py_None),
            core ? int_list(core->data(), core->size()) : Py_NewRef(Py_None),
            PyLong_FromLongLong(conflicts),
            PyLong_FromLongLong(decisions),
            PyLong_FromLongLong(propagations),
            PyLong_FromLongLong(restarts),
            learnt_clauses(),
            records.pair(),
        };
        PyObject *result = PyDict_New();
        for (size_t i = 0; i < sizeof(vals) / sizeof(vals[0]); i++) {
            if (!vals[i] || (result && PyDict_SetItemString(result, keys[i], vals[i]) < 0))
                Py_CLEAR(result);
            Py_XDECREF(vals[i]);
        }
        return result;
    }

    // the live clauses the current solve learnt, as tuples
    PyObject *learnt_clauses() const {
        PyObject *out = PyList_New(0);
        for (int ci = first_learnt; out && ci < (int)c_off.size(); ci++) {
            PyObject *clause = int_tuple(db.data() + c_off[ci], c_len[ci]);
            if (!clause || PyList_Append(out, clause) < 0)
                Py_CLEAR(out);
            Py_XDECREF(clause);
        }
        return out;
    }
};

// ----------------------------------------------------------------------
// the Python type

struct SearchCore {
    PyObject_HEAD
    Kernel k;
};

PyObject *core_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static const char *kwlist[] = {"nvars", "clauses", "propagators", "order_literals",
                                   nullptr};
    int nvars;
    PyObject *clauses, *propagators, *order_literals = nullptr;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOO|O", (char **)kwlist, &nvars,
                                     &clauses, &propagators, &order_literals))
        return nullptr;
    if (nvars < 0)
        return PyErr_Format(PyExc_ValueError, "negative variable count %d", nvars);
    SearchCore *self = (SearchCore *)type->tp_alloc(type, 0);
    if (!self)
        return nullptr;
    Kernel &k = *new (&self->k) Kernel();
    k.view = (PyObject *)self;
    k.props = PyList_New(0);
    k.order_ints = PyList_New(0);
    if (!k.props || !k.order_ints ||
        !k.extend(nvars, clauses, propagators, order_literals)) {
        Py_DECREF(self);
        return nullptr;
    }
    return (PyObject *)self;
}

int core_traverse(SearchCore *self, visitproc visit, void *arg) {
    Py_VISIT(Py_TYPE(self));
    Py_VISIT(self->k.props);
    Py_VISIT(self->k.order_ints);
    for (const Kernel::BoundUndo &u : self->k.bound_undo)
        Py_VISIT(u.old);
    return 0;
}

int core_clear(SearchCore *self) {
    Py_CLEAR(self->k.props);
    for (const Kernel::BoundUndo &u : self->k.bound_undo)
        Py_DECREF(u.old);
    self->k.bound_undo.clear();
    std::fill(self->k.order_var.begin(), self->k.order_var.end(), nullptr);
    Py_CLEAR(self->k.order_ints);
    return 0;
}

void core_dealloc(SearchCore *self) {
    PyTypeObject *type = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    core_clear(self);
    self->k.~Kernel();
    type->tp_free(self);
    Py_DECREF(type);
}

PyObject *core_lit_value(SearchCore *self, PyObject *arg) {
    int lit;
    if (!read_lit(arg, self->k.nvars, lit))
        return nullptr;
    return PyLong_FromLong(self->k.lit_value(lit));
}

PyObject *core_enqueue(SearchCore *self, PyObject *const *args, Py_ssize_t nargs) {
    Kernel &k = self->k;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "enqueue() takes 2 arguments");
    k.expl.assign(1, 0);
    if (!read_lit(args[0], k.nvars, k.expl[0]) || !read_lits(args[1], k.nvars, k.expl) ||
        !k.negate_reasons(1, "explanation"))
        return nullptr;
    int lit = k.expl[0];
    int v = k.lit_value(lit);
    if (v == 1)
        Py_RETURN_TRUE;
    int ref = k.records.add(lit, k.expl.data() + 1, (int)k.expl.size() - 1);
    if (v == -1) {
        k.prop_conflict = ref;
        Py_RETURN_FALSE;
    }
    k.assign(lit, ref);
    if (k.bound_failed)
        return nullptr;
    k.prop_enqueued = true;
    Py_RETURN_TRUE;
}

PyObject *core_fail(SearchCore *self, PyObject *reason_lits) {
    Kernel &k = self->k;
    k.expl.clear();
    if (!read_lits(reason_lits, k.nvars, k.expl) || !k.negate_reasons(0, "nogood"))
        return nullptr;
    k.prop_conflict = k.records.add(0, k.expl.data(), (int)k.expl.size());
    Py_RETURN_FALSE;
}

PyObject *core_extend(SearchCore *self, PyObject *args) {
    int nvars;
    PyObject *clauses, *propagators, *order_literals = nullptr;
    if (!PyArg_ParseTuple(args, "iOO|O", &nvars, &clauses, &propagators,
                          &order_literals))
        return nullptr;
    if (nvars < self->k.nvars)
        return PyErr_Format(PyExc_ValueError, "variable count %d below %d", nvars,
                            self->k.nvars);
    if (!self->k.extend(nvars, clauses, propagators, order_literals))
        return nullptr;
    Py_RETURN_NONE;
}

PyObject *core_solve(SearchCore *self, PyObject *args, PyObject *kwds) {
    static const char *kwlist[] = {"assumptions", "conflict_budget", "time_budget_s", nullptr};
    PyObject *assumptions, *conflict_budget = Py_None, *time_budget_s = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|OO", (char **)kwlist, &assumptions,
                                     &conflict_budget, &time_budget_s))
        return nullptr;
    std::vector<int> lits;
    if (!read_lits(assumptions, self->k.nvars, lits))
        return nullptr;
    // a budget may be any real number, as for the pure kernel
    double budget = 0.0, deadline = 0.0;
    if (conflict_budget != Py_None) {
        budget = PyFloat_AsDouble(conflict_budget);
        if (budget == -1.0 && PyErr_Occurred())
            return nullptr;
    }
    if (time_budget_s != Py_None) {
        double seconds = PyFloat_AsDouble(time_budget_s);
        if (seconds == -1.0 && PyErr_Occurred())
            return nullptr;
        deadline = monotonic() + seconds;
    }
    return self->k.solve(lits, conflict_budget != Py_None, budget,
                         time_budget_s != Py_None, deadline);
}

PyMethodDef core_methods[] = {
    {"lit_value", (PyCFunction)core_lit_value, METH_O,
     "lit_value(lit) -> 1 true, 0 unset, -1 false"},
    {"enqueue", (PyCFunction)(void (*)(void))core_enqueue, METH_FASTCALL,
     "enqueue(lit, reason_lits): set lit, explained by the true reason_lits;"
     " False when lit is already false"},
    {"fail", (PyCFunction)core_fail, METH_O,
     "fail(reason_lits): report a conflict among the true reason_lits"},
    {"extend", (PyCFunction)core_extend, METH_VARARGS,
     "extend(nvars, clauses, propagators, order_literals=()): grow to nvars"
     " variables, add the problem clauses, the propagators and the"
     " (literal, IntVar, value) order literals, and read every wake_on again"},
    {"solve", (PyCFunction)(void (*)(void))core_solve, METH_VARARGS | METH_KEYWORDS,
     "solve(assumptions, conflict_budget=None, time_budget_s=None) -> result dict"},
    {nullptr, nullptr, 0, nullptr},
};

PyType_Slot core_slots[] = {
    {Py_tp_doc, (void *)"SearchCore(nvars, clauses, propagators, order_literals=())\n\n"
                        "CDCL search over int literals (DIMACS signs), solved again "
                        "and again as the clause set grows."},
    {Py_tp_new, (void *)core_new},
    {Py_tp_dealloc, (void *)core_dealloc},
    {Py_tp_traverse, (void *)core_traverse},
    {Py_tp_clear, (void *)core_clear},
    {Py_tp_methods, core_methods},
    {0, nullptr},
};

PyType_Spec core_spec = {"maxcore.engine._search.SearchCore", sizeof(SearchCore), 0,
                         Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC, core_slots};

PyModuleDef module_def = {PyModuleDef_HEAD_INIT, "_search",
                          "Compiled CDCL search kernel; see _search_py.py.", -1};

}  // namespace

PyMODINIT_FUNC PyInit__search(void) {
    PyObject *errors = PyImport_ImportModule("maxcore.engine.errors");
    if (!errors)
        return nullptr;
    integrity_error = PyObject_GetAttrString(errors, "EngineIntegrityError");
    Py_DECREF(errors);
    PyObject *search_py = PyImport_ImportModule("maxcore.engine._search_py");
    if (!search_py)
        return nullptr;
    flat_negs = PyObject_GetAttrString(search_py, "FlatNegs");
    Py_DECREF(search_py);
    str_propagate = PyUnicode_InternFromString("propagate");
    str_wake_on = PyUnicode_InternFromString("wake_on");
    str_cur = PyUnicode_InternFromString("cur");
    str_lb0 = PyUnicode_InternFromString("lb0");
    str_ub0 = PyUnicode_InternFromString("ub0");
    if (!integrity_error || !flat_negs || !str_propagate || !str_wake_on || !str_cur ||
        !str_lb0 || !str_ub0)
        return nullptr;
    PyObject *module = PyModule_Create(&module_def);
    PyObject *type = module ? PyType_FromSpec(&core_spec) : nullptr;
    if (!type || PyModule_AddObject(module, "SearchCore", type) < 0) {
        Py_XDECREF(type);
        Py_XDECREF(module);
        return nullptr;
    }
    if (PyModule_AddStringConstant(module, "SOURCE_SHA256", SOURCE_SHA256) < 0) {
        Py_DECREF(module);
        return nullptr;
    }
    return module;
}
