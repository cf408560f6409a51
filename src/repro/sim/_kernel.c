/*
 * Compiled event kernel for repro.sim.engine.Simulator.
 *
 * This file is the C twin of the pure-Python reference kernel in
 * engine.py and process.py.  It provides the hot pieces of the kernel
 * and nothing else:
 *
 *   - _push(when, priority, event): the one place the scheduling
 *     invariant lives -- seq += 1, the tie-break mix
 *     (seq * mult + add) mod 2**64, and the push on the heap;
 *   - _loop(horizon, limit): the dispatch loop of Simulator.run;
 *   - timeout(delay, value=None, label="") and defer(delay, func, *args):
 *     the pooled factories;
 *   - _make_resume(process): a callable that resumes a process's
 *     generator with the value of the event it waited on, created once
 *     per process.
 *
 * The objects stay Python objects: Simulator, Event, Timeout, _Deferred
 * and Process are the classes of engine.py, events.py and process.py,
 * whose __slots__ this module reads and writes through the slot offsets
 * their member descriptors publish.  bind() checks every offset once,
 * then returns the methods, which the engine installs on Simulator.
 *
 * The pop order is the total order on unique (when, priority, key)
 * tuples, so this kernel replays the reference kernel bit for bit; the
 * kernel differential tests pin that.
 *
 * Built on first import by repro.sim.kernel with the interpreter's own
 * compiler settings; needs CPython >= 3.10 (PyIter_Send).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#ifndef REPRO_KERNEL_SHA256
#define REPRO_KERNEL_SHA256 "unknown"
#endif

/* The loader finds this marker in a cached build to check, without
   loading it, that the build came from the current source. */
static const char source_marker[] =
    "repro-kernel-source-sha256:" REPRO_KERNEL_SHA256;

/* -- bound state (set once by bind()) ------------------------------------ */

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Simulator slots. */
static Py_ssize_t S_now, S_heap, S_seq, S_count, S_tb_mult, S_tb_add,
    S_tpool, S_epool, S_dpool;
/* Event, Timeout, _Deferred and Process slots. */
static Py_ssize_t E_sim, E_callbacks, E_value, E_ok, E_state, E_label,
    T_delay, D_func, D_args, P_generator, P_waiting_on;

static PyTypeObject *EventType, *TimeoutType, *DeferredType;
static PyObject *SchedulingError;
static PyObject *Normal;          /* the NORMAL priority object */
static Py_ssize_t PoolCap;

/* Event states (events.py: _PENDING, _TRIGGERED, _PROCESSED, _CANCELLED). */
static PyObject *State[4];
static PyObject *Zero, *One, *EmptyStr;
static PyObject *str_succeed, *str_fail, *str_wait_on, *str_throw,
    *str_send, *str_value;

/* -- slot helpers ---------------------------------------------------------- */

/* Borrowed value of a slot, or NULL with AttributeError when unset. */
static inline PyObject *
get_slot(PyObject *obj, Py_ssize_t off)
{
    PyObject *value = SLOT(obj, off);
    if (value == NULL)
        PyErr_Format(PyExc_AttributeError,
                     "%.100s object has an unset kernel slot",
                     Py_TYPE(obj)->tp_name);
    return value;
}

/* Store a new reference to value (the slot's old value is released). */
static inline void
set_slot(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(value);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* Store value, stealing the reference. */
static inline void
set_slot_steal(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* 1 when the state slot holds state n, 0 otherwise, -1 on error. */
static inline int
state_is(PyObject *state, long n)
{
    long got;
    if (state == State[n])
        return 1;
    got = PyLong_AsLong(state);
    if (got == -1 && PyErr_Occurred())
        return -1;
    return got == n;
}

static inline int
as_double(PyObject *obj, double *out)
{
    if (PyFloat_CheckExact(obj)) {
        *out = PyFloat_AS_DOUBLE(obj);
        return 0;
    }
    *out = PyFloat_AsDouble(obj);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* now + delay with Python's arithmetic (float + int rounds the int). */
static PyObject *
add_time(PyObject *now, PyObject *delay)
{
    if (PyFloat_CheckExact(now)) {
        if (PyFloat_CheckExact(delay))
            return PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                      + PyFloat_AS_DOUBLE(delay));
        if (PyLong_CheckExact(delay)) {
            double d = PyLong_AsDouble(delay);
            if (d == -1.0 && PyErr_Occurred())
                return NULL;
            return PyFloat_FromDouble(PyFloat_AS_DOUBLE(now) + d);
        }
    }
    return PyNumber_Add(now, delay);
}

/* 1 when delay < 0, 0 otherwise, -1 on error. */
static inline int
is_negative(PyObject *delay)
{
    if (PyFloat_CheckExact(delay))
        return PyFloat_AS_DOUBLE(delay) < 0.0;
    return PyObject_RichCompareBool(delay, Zero, Py_LT);
}

/* -- the heap ---------------------------------------------------------------
 *
 * heapq's algorithms on the simulator's list, with the comparison
 * specialised to (when, priority, key, event) tuples.  Anything else
 * falls back to plain tuple comparison, so the order is exactly the
 * one heapq would keep.
 */

static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)
            && PyTuple_GET_SIZE(a) >= 3 && PyTuple_GET_SIZE(b) >= 3) {
        PyObject *x = PyTuple_GET_ITEM(a, 0), *y = PyTuple_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(x) && PyFloat_CheckExact(y)) {
            double dx = PyFloat_AS_DOUBLE(x), dy = PyFloat_AS_DOUBLE(y);
            if (dx < dy)
                return 1;
            if (dx > dy)
                return 0;
            if (dx == dy) {
                x = PyTuple_GET_ITEM(a, 1);
                y = PyTuple_GET_ITEM(b, 1);
                if (x == y)
                    return PyObject_RichCompareBool(
                        PyTuple_GET_ITEM(a, 2), PyTuple_GET_ITEM(b, 2),
                        Py_LT);
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

static int
heap_siftdown(PyListObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    Py_ssize_t size = PyList_GET_SIZE(heap);
    PyObject *newitem, *parent, **arr;
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        int cmp;
        arr = heap->ob_item;
        newitem = arr[pos];
        parent = arr[parentpos];
        Py_INCREF(newitem);
        Py_INCREF(parent);
        cmp = entry_lt(newitem, parent);
        Py_DECREF(parent);
        Py_DECREF(newitem);
        if (cmp < 0)
            return -1;
        if (size != PyList_GET_SIZE(heap)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "list changed size during iteration");
            return -1;
        }
        if (cmp == 0)
            break;
        arr = heap->ob_item;
        parent = arr[parentpos];
        newitem = arr[pos];
        arr[parentpos] = newitem;
        arr[pos] = parent;
        pos = parentpos;
    }
    return 0;
}

static int
heap_siftup(PyListObject *heap, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, endpos = PyList_GET_SIZE(heap);
    Py_ssize_t limit = endpos >> 1;
    PyObject **arr, *tmp;
    while (pos < limit) {
        Py_ssize_t childpos = 2 * pos + 1;
        arr = heap->ob_item;
        if (childpos + 1 < endpos) {
            PyObject *a = arr[childpos], *b = arr[childpos + 1];
            int cmp;
            Py_INCREF(a);
            Py_INCREF(b);
            cmp = entry_lt(a, b);
            Py_DECREF(a);
            Py_DECREF(b);
            if (cmp < 0)
                return -1;
            childpos += ((unsigned)cmp ^ 1);
            if (endpos != PyList_GET_SIZE(heap)) {
                PyErr_SetString(PyExc_RuntimeError,
                                "list changed size during iteration");
                return -1;
            }
            arr = heap->ob_item;
        }
        tmp = arr[childpos];
        arr[childpos] = arr[pos];
        arr[pos] = tmp;
        pos = childpos;
    }
    return heap_siftdown(heap, startpos, pos);
}

/* Push entry (a new reference is taken). */
static int
heap_push(PyObject *heap, PyObject *entry)
{
    if (PyList_Append(heap, entry) < 0)
        return -1;
    return heap_siftdown((PyListObject *)heap, 0,
                         PyList_GET_SIZE(heap) - 1);
}

/* Pop the smallest entry (new reference); the heap must be non-empty. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1), *top;
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    if (heap_siftup((PyListObject *)heap, 0) < 0) {
        Py_DECREF(top);
        return NULL;
    }
    return top;
}

/* -- _push: the scheduling invariant --------------------------------------- */

static int
push(PyObject *sim, PyObject *when, PyObject *priority, PyObject *event)
{
    PyObject *seq_obj, *mult, *add, *key, *entry, *heap;
    unsigned long long seq;
    int rc;

    if ((seq_obj = get_slot(sim, S_seq)) == NULL)
        return -1;
    seq = PyLong_AsUnsignedLongLong(seq_obj);
    if (seq == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    if ((seq_obj = PyLong_FromUnsignedLongLong(seq + 1)) == NULL)
        return -1;
    set_slot_steal(sim, S_seq, seq_obj);

    if ((mult = get_slot(sim, S_tb_mult)) == NULL
            || (add = get_slot(sim, S_tb_add)) == NULL)
        return -1;
    if (mult == One && add == Zero) {
        key = Py_NewRef(seq_obj);
    } else {
        unsigned long long m = PyLong_AsUnsignedLongLongMask(mult);
        unsigned long long a;
        if (m == (unsigned long long)-1 && PyErr_Occurred())
            return -1;
        a = PyLong_AsUnsignedLongLongMask(add);
        if (a == (unsigned long long)-1 && PyErr_Occurred())
            return -1;
        /* Unsigned arithmetic wraps mod 2**64: the & TB_MASK mix. */
        key = PyLong_FromUnsignedLongLong((seq + 1) * m + a);
        if (key == NULL)
            return -1;
    }
    entry = PyTuple_New(4);
    if (entry == NULL) {
        Py_DECREF(key);
        return -1;
    }
    PyTuple_SET_ITEM(entry, 0, Py_NewRef(when));
    PyTuple_SET_ITEM(entry, 1, Py_NewRef(priority));
    PyTuple_SET_ITEM(entry, 2, key);
    PyTuple_SET_ITEM(entry, 3, Py_NewRef(event));

    if ((heap = get_slot(sim, S_heap)) == NULL) {
        Py_DECREF(entry);
        return -1;
    }
    if (!PyList_CheckExact(heap)) {
        Py_DECREF(entry);
        PyErr_SetString(PyExc_TypeError, "the heap must be a list");
        return -1;
    }
    rc = heap_push(heap, entry);
    Py_DECREF(entry);
    return rc;
}

static PyObject *
kernel_push(PyObject *sim, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "_push() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (push(sim, args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* -- timeout / defer -------------------------------------------------------- */

static PyObject *
kernel_timeout(PyObject *sim, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    static const char *names[] = {"delay", "value", "label"};
    PyObject *arg[3] = {NULL, Py_None, EmptyStr};
    PyObject *pool, *ev, *now, *when;
    Py_ssize_t i, nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    int negative, rc;

    if (nargs > 3) {
        PyErr_Format(PyExc_TypeError,
                     "timeout() takes at most 3 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    for (i = 0; i < nargs; i++)
        arg[i] = args[i];
    for (i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        int slot;
        for (slot = 0; slot < 3; slot++)
            if (PyUnicode_CompareWithASCIIString(name, names[slot]) == 0)
                break;
        if (slot == 3 || slot < nargs) {
            PyErr_Format(PyExc_TypeError,
                         "timeout() got an unexpected or repeated "
                         "keyword argument '%S'", name);
            return NULL;
        }
        arg[slot] = args[nargs + i];
    }
    if (arg[0] == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "timeout() missing required argument 'delay'");
        return NULL;
    }
    if ((pool = get_slot(sim, S_tpool)) == NULL)
        return NULL;
    if (!PyList_CheckExact(pool) || PyList_GET_SIZE(pool) == 0) {
        PyObject *call[4] = {sim, arg[0], arg[1], arg[2]};
        return PyObject_Vectorcall((PyObject *)TimeoutType, call, 4, NULL);
    }
    if ((negative = is_negative(arg[0])) != 0) {
        if (negative > 0)
            PyErr_Format(SchedulingError, "negative timeout delay: %S",
                         arg[0]);
        return NULL;
    }
    ev = PyList_GET_ITEM(pool, PyList_GET_SIZE(pool) - 1);
    Py_INCREF(ev);
    if (PyList_SetSlice(pool, PyList_GET_SIZE(pool) - 1,
                        PyList_GET_SIZE(pool), NULL) < 0)
        goto error;
    set_slot(ev, E_value, arg[1]);
    set_slot(ev, E_ok, Py_True);
    set_slot(ev, E_state, State[1]);
    set_slot(ev, E_label, arg[2]);
    set_slot(ev, T_delay, arg[0]);
    if ((now = get_slot(sim, S_now)) == NULL
            || (when = add_time(now, arg[0])) == NULL)
        goto error;
    rc = push(sim, when, Normal, ev);
    Py_DECREF(when);
    if (rc < 0)
        goto error;
    return ev;
error:
    Py_DECREF(ev);
    return NULL;
}

static PyObject *
kernel_defer(PyObject *sim, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *pool, *cell, *callargs, *now, *when;
    int negative, rc;

    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "defer() takes at least 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if ((negative = is_negative(args[0])) != 0) {
        if (negative > 0)
            PyErr_Format(SchedulingError, "negative delay: %S", args[0]);
        return NULL;
    }
    if ((callargs = PyTuple_New(nargs - 2)) == NULL)
        return NULL;
    for (Py_ssize_t i = 2; i < nargs; i++)
        PyTuple_SET_ITEM(callargs, i - 2, Py_NewRef(args[i]));
    if ((pool = get_slot(sim, S_dpool)) == NULL)
        goto fail_args;
    if (PyList_CheckExact(pool) && PyList_GET_SIZE(pool) > 0) {
        Py_ssize_t n = PyList_GET_SIZE(pool);
        cell = Py_NewRef(PyList_GET_ITEM(pool, n - 1));
        if (PyList_SetSlice(pool, n - 1, n, NULL) < 0) {
            Py_DECREF(cell);
            goto fail_args;
        }
        set_slot(cell, D_func, args[1]);
        set_slot_steal(cell, D_args, callargs);
    } else {
        PyObject *call[2] = {args[1], callargs};
        cell = PyObject_Vectorcall((PyObject *)DeferredType, call, 2, NULL);
        Py_DECREF(callargs);
        if (cell == NULL)
            return NULL;
    }
    if ((now = get_slot(sim, S_now)) == NULL
            || (when = add_time(now, args[0])) == NULL) {
        Py_DECREF(cell);
        return NULL;
    }
    rc = push(sim, when, Normal, cell);
    Py_DECREF(when);
    Py_DECREF(cell);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
fail_args:
    Py_DECREF(callargs);
    return NULL;
}

/* -- process resume ---------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *proc;
    PyObject *gen;
} Resume;

static PyTypeObject ResumeType;

/* Fetch the raised exception, with its traceback attached. */
static PyObject *
fetch_exception(void)
{
#if PY_VERSION_HEX >= 0x030C0000
    return PyErr_GetRaisedException();
#else
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    PyErr_NormalizeException(&type, &value, &tb);
    if (tb != NULL && value != NULL)
        PyException_SetTraceback(value, tb);
    Py_XDECREF(type);
    Py_XDECREF(tb);
    return value;
#endif
}

/* proc.<method>(arg); returns 0 or -1. */
static int
call_method(PyObject *obj, PyObject *name, PyObject *arg)
{
    PyObject *result = PyObject_CallMethodOneArg(obj, name, arg);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* The generator raised (error set): succeed on StopIteration, fail the
   process on any other Exception, propagate anything else. */
static int
resume_raised(PyObject *proc)
{
    PyObject *exc, *value;
    int rc;
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        exc = fetch_exception();
        value = exc == NULL ? Py_NewRef(Py_None)
                            : PyObject_GetAttr(exc, str_value);
        Py_XDECREF(exc);
        if (value == NULL)
            return -1;
        rc = call_method(proc, str_succeed, value);
        Py_DECREF(value);
        return rc;
    }
    if (!PyErr_ExceptionMatches(PyExc_Exception))
        return -1;
    exc = fetch_exception();
    if (exc == NULL)
        return -1;
    rc = call_method(proc, str_fail, exc);
    Py_DECREF(exc);
    return rc;
}

/* One resume: send the event's outcome into the generator, then arm the
   next resume on whatever it yields.  Mirrors Process._wake. */
static int
resume(Resume *self, PyObject *event)
{
    PyObject *proc = self->proc, *gen = self->gen;
    PyObject *state, *ok, *value, *target, *callbacks, *proc_sim, *tsim;
    PyTypeObject *tt;
    int truth, rc;

    if ((state = get_slot(proc, E_state)) == NULL)
        return -1;
    if ((rc = state_is(state, 0)) <= 0)
        return rc;   /* interrupted and finished before this fired */
    set_slot(proc, P_waiting_on, Py_None);
    if (!PyObject_TypeCheck(event, EventType)) {
        PyErr_Format(PyExc_TypeError, "cannot resume a process with %R",
                     event);
        return -1;
    }
    if ((ok = get_slot(event, E_ok)) == NULL
            || (value = get_slot(event, E_value)) == NULL)
        return -1;
    truth = ok == Py_True ? 1 : ok == Py_False ? 0 : PyObject_IsTrue(ok);
    if (truth < 0)
        return -1;
    Py_INCREF(value);
    if (truth && PyGen_CheckExact(gen)) {
        PySendResult sent = PyIter_Send(gen, value, &target);
        Py_DECREF(value);
        if (sent == PYGEN_RETURN) {
            rc = call_method(proc, str_succeed, target);
            Py_DECREF(target);
            return rc;
        }
        if (sent == PYGEN_ERROR)
            return resume_raised(proc);
    } else {
        target = PyObject_CallMethodOneArg(gen, truth ? str_send : str_throw,
                                           value);
        Py_DECREF(value);
        if (target == NULL)
            return resume_raised(proc);
    }
    /* Re-arm inline for an unprocessed same-simulator Timeout or plain
       Event; anything else goes through Process._wait_on. */
    tt = Py_TYPE(target);
    if (tt == TimeoutType || tt == EventType) {
        if ((tsim = get_slot(target, E_sim)) == NULL
                || (proc_sim = get_slot(proc, E_sim)) == NULL
                || (state = get_slot(target, E_state)) == NULL
                || (rc = state_is(state, 2)) < 0) {
            Py_DECREF(target);
            return -1;
        }
        callbacks = SLOT(target, E_callbacks);
        if (tsim == proc_sim && !rc && callbacks != NULL
                && PyList_CheckExact(callbacks)) {
            set_slot(proc, P_waiting_on, target);
            rc = PyList_Append(callbacks, (PyObject *)self);
            Py_DECREF(target);
            return rc;
        }
    }
    rc = call_method(proc, str_wait_on, target);
    Py_DECREF(target);
    return rc;
}

static PyObject *
Resume_call(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *event;
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs)) {
        PyErr_SetString(PyExc_TypeError, "resume takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "resume", 1, 1, &event))
        return NULL;
    if (resume((Resume *)self, event) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
Resume_traverse(Resume *self, visitproc visit, void *arg)
{
    Py_VISIT(self->proc);
    Py_VISIT(self->gen);
    return 0;
}

static int
Resume_clear(Resume *self)
{
    Py_CLEAR(self->proc);
    Py_CLEAR(self->gen);
    return 0;
}

static void
Resume_dealloc(Resume *self)
{
    PyObject_GC_UnTrack(self);
    Resume_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Resume_repr(Resume *self)
{
    return PyUnicode_FromFormat("<resume of %R>", self->proc);
}

static PyTypeObject ResumeType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._kernel.Resume",
    .tp_doc = "Resumes one process with the event it waited on.",
    .tp_basicsize = sizeof(Resume),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_call = Resume_call,
    .tp_traverse = (traverseproc)Resume_traverse,
    .tp_clear = (inquiry)Resume_clear,
    .tp_dealloc = (destructor)Resume_dealloc,
    .tp_repr = (reprfunc)Resume_repr,
};

static PyObject *
kernel_make_resume(PyObject *sim, PyObject *process)
{
    Resume *self;
    PyObject *gen;
    if (!PyObject_TypeCheck(process, EventType)) {
        PyErr_SetString(PyExc_TypeError, "_make_resume() needs a Process");
        return NULL;
    }
    if ((gen = get_slot(process, P_generator)) == NULL)
        return NULL;
    self = PyObject_GC_New(Resume, &ResumeType);
    if (self == NULL)
        return NULL;
    self->proc = Py_NewRef(process);
    self->gen = Py_NewRef(gen);
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

/* -- _loop: the dispatch loop -------------------------------------------------- */

/* Run event's callbacks (it is already marked processed); the callbacks
   list is detached by the caller and passed in. */
static int
run_callbacks(PyObject *callbacks, PyObject *event)
{
    if (PyList_CheckExact(callbacks)) {
        /* Index the live list: a callback may append to it. */
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
            PyObject *cb = Py_NewRef(PyList_GET_ITEM(callbacks, i));
            int rc;
            if (Py_TYPE(cb) == &ResumeType) {
                rc = resume((Resume *)cb, event);
            } else {
                PyObject *result = PyObject_CallOneArg(cb, event);
                rc = result == NULL ? -1 : 0;
                Py_XDECREF(result);
            }
            Py_DECREF(cb);
            if (rc < 0)
                return -1;
        }
        return 0;
    }
    PyObject *it = PyObject_GetIter(callbacks), *cb;
    if (it == NULL)
        return -1;
    while ((cb = PyIter_Next(it)) != NULL) {
        PyObject *result = PyObject_CallOneArg(cb, event);
        Py_DECREF(cb);
        if (result == NULL) {
            Py_DECREF(it);
            return -1;
        }
        Py_DECREF(result);
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : 0;
}

/* Return a processed Timeout/Event to its pool when the kernel holds the
   last reference, carrying its cleared callbacks list along. */
static int
recycle(PyObject *event, PyObject *callbacks, PyObject *pool)
{
    if (Py_REFCNT(event) != 1 || !PyList_CheckExact(callbacks)
            || PyList_GET_SIZE(pool) >= PoolCap)
        return 0;
    if (PyList_SetSlice(callbacks, 0, PyList_GET_SIZE(callbacks), NULL) < 0)
        return -1;
    set_slot(event, E_callbacks, callbacks);
    set_slot(event, E_value, Py_None);
    return PyList_Append(pool, event);
}

/* Dispatch one popped entry; its references to when and event are
   borrowed from the caller.  Counts the event in *count before running
   it (a cancelled entry is not counted), as the reference does.
   Returns 0, or -1 on error. */
static int
dispatch(PyObject *sim, PyObject *when, PyObject *event, PyObject *tpool,
         PyObject *epool, PyObject *dpool, long long *count)
{
    PyTypeObject *tp = Py_TYPE(event);
    PyObject *state, *callbacks;
    int rc;

    if (tp == DeferredType) {
        PyObject *func, *args, *result;
        set_slot(sim, S_now, when);
        *count += 1;
        if ((func = get_slot(event, D_func)) == NULL
                || (args = get_slot(event, D_args)) == NULL)
            return -1;
        Py_INCREF(func);
        Py_INCREF(args);
        set_slot(event, D_func, Py_None);
        set_slot(event, D_args, Py_None);
        if (PyList_GET_SIZE(dpool) < PoolCap
                && PyList_Append(dpool, event) < 0) {
            Py_DECREF(func);
            Py_DECREF(args);
            return -1;
        }
        result = PyTuple_CheckExact(args) ? PyObject_Call(func, args, NULL)
                                          : NULL;
        if (result == NULL && !PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "deferred args must be a tuple");
        Py_DECREF(func);
        Py_DECREF(args);
        if (result == NULL)
            return -1;
        Py_DECREF(result);
        return 0;
    }
    if (tp != TimeoutType && tp != EventType
            && !PyObject_TypeCheck(event, EventType)) {
        PyErr_Format(PyExc_TypeError, "schedule entry holds a non-event: %R",
                     event);
        return -1;
    }
    if ((state = get_slot(event, E_state)) == NULL
            || (rc = state_is(state, 3)) < 0)
        return -1;
    if (rc)
        return 0;   /* cancelled: vanish */
    set_slot(sim, S_now, when);
    *count += 1;
    if ((callbacks = get_slot(event, E_callbacks)) == NULL)
        return -1;
    Py_INCREF(callbacks);
    set_slot(event, E_callbacks, Py_None);
    set_slot(event, E_state, State[2]);
    rc = run_callbacks(callbacks, event);
    if (rc == 0 && (tp == TimeoutType || tp == EventType))
        rc = recycle(event, callbacks, tp == TimeoutType ? tpool : epool);
    Py_DECREF(callbacks);
    return rc;
}

static PyObject *
kernel_loop(PyObject *sim, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *heap, *tpool, *epool, *dpool, *count_obj;
    double horizon, limit;
    long long count;
    int failed = 0;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "_loop() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (as_double(args[0], &horizon) < 0 || as_double(args[1], &limit) < 0)
        return NULL;
    if ((heap = get_slot(sim, S_heap)) == NULL
            || (tpool = get_slot(sim, S_tpool)) == NULL
            || (epool = get_slot(sim, S_epool)) == NULL
            || (dpool = get_slot(sim, S_dpool)) == NULL
            || (count_obj = get_slot(sim, S_count)) == NULL)
        return NULL;
    if (!PyList_CheckExact(heap) || !PyList_CheckExact(tpool)
            || !PyList_CheckExact(epool) || !PyList_CheckExact(dpool)) {
        PyErr_SetString(PyExc_TypeError,
                        "the heap and the pools must be lists");
        return NULL;
    }
    count = PyLong_AsLongLong(count_obj);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    Py_INCREF(heap);
    Py_INCREF(tpool);
    Py_INCREF(epool);
    Py_INCREF(dpool);

    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *top = PyList_GET_ITEM(heap, 0), *entry, *when, *event;
        double t;
        int rc;
        if (!PyTuple_CheckExact(top) || PyTuple_GET_SIZE(top) != 4) {
            PyErr_SetString(PyExc_TypeError,
                            "schedule entries must be 4-tuples");
            failed = 1;
            goto done;
        }
        if (as_double(PyTuple_GET_ITEM(top, 0), &t) < 0) {
            failed = 1;
            goto done;
        }
        if (t > horizon)
            goto done;
        if ((entry = heap_pop(heap)) == NULL) {
            failed = 1;
            goto done;
        }
        when = Py_NewRef(PyTuple_GET_ITEM(entry, 0));
        event = Py_NewRef(PyTuple_GET_ITEM(entry, 3));
        Py_DECREF(entry);
        rc = dispatch(sim, when, event, tpool, epool, dpool, &count);
        Py_DECREF(when);
        Py_DECREF(event);
        if (rc < 0) {
            failed = 1;
            goto done;
        }
        if ((double)count > limit)
            goto done;
    }
done:
    Py_DECREF(heap);
    Py_DECREF(tpool);
    Py_DECREF(epool);
    Py_DECREF(dpool);
    /* Written back on every exit, like the reference's finally; an
       int allocation is safe while an exception is pending. */
    count_obj = PyLong_FromLongLong(count);
    if (count_obj == NULL)
        return NULL;
    set_slot_steal(sim, S_count, count_obj);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

/* -- bind ----------------------------------------------------------------------- */

static PyMethodDef simulator_methods[] = {
    {"_push", (PyCFunction)(void (*)(void))kernel_push, METH_FASTCALL,
     "_push($self, when, priority, event, /)\n--\n\n"
     "Insert *event* at absolute time *when* (compiled kernel)."},
    {"_loop", (PyCFunction)(void (*)(void))kernel_loop, METH_FASTCALL,
     "_loop($self, horizon, limit, /)\n--\n\n"
     "Dispatch events up to *horizon* or past *limit* events "
     "(compiled kernel)."},
    {"timeout", (PyCFunction)(void (*)(void))kernel_timeout,
     METH_FASTCALL | METH_KEYWORDS,
     "timeout($self, /, delay, value=None, label='')\n--\n\n"
     "Create an event that fires *delay* ns from now (compiled kernel)."},
    {"defer", (PyCFunction)(void (*)(void))kernel_defer, METH_FASTCALL,
     "defer($self, delay, func, /, *args)\n--\n\n"
     "Run ``func(*args)`` after *delay* ns; fire-and-forget "
     "(compiled kernel)."},
    {"_make_resume", (PyCFunction)kernel_make_resume, METH_O,
     "_make_resume($self, process, /)\n--\n\n"
     "The resume callable of *process* (compiled kernel)."},
    {NULL, NULL, 0, NULL},
};

/* Offset of a writable object slot named name on type, or -1. */
static Py_ssize_t
slot_offset(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    Py_ssize_t offset = -1;
    if (descr == NULL)
        return -1;
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY))
            offset = member->offset;
    }
    Py_DECREF(descr);
    if (offset < 0)
        PyErr_Format(PyExc_TypeError, "%R.%s is not a writable __slots__ "
                     "member", type, name);
    return offset;
}

static int
check_type(PyObject *obj, const char *what)
{
    if (!PyType_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "bind(): %s must be a class", what);
        return -1;
    }
    return 0;
}

static PyObject *
kernel_bind(PyObject *module, PyObject *args)
{
    PyObject *sim, *event, *timeout, *deferred, *process, *sched_error,
        *normal, *methods;
    Py_ssize_t cap;
    struct { Py_ssize_t *out; PyObject **type; const char *name; } slots[] = {
        {&S_now, &sim, "_now"}, {&S_heap, &sim, "_heap"},
        {&S_seq, &sim, "_seq"}, {&S_count, &sim, "_event_count"},
        {&S_tb_mult, &sim, "_tb_mult"}, {&S_tb_add, &sim, "_tb_add"},
        {&S_tpool, &sim, "_timeout_pool"}, {&S_epool, &sim, "_event_pool"},
        {&S_dpool, &sim, "_deferred_pool"},
        {&E_sim, &event, "sim"}, {&E_callbacks, &event, "callbacks"},
        {&E_value, &event, "_value"}, {&E_ok, &event, "_ok"},
        {&E_state, &event, "_state"}, {&E_label, &event, "label"},
        {&T_delay, &timeout, "delay"},
        {&D_func, &deferred, "func"}, {&D_args, &deferred, "args"},
        {&P_generator, &process, "_generator"},
        {&P_waiting_on, &process, "_waiting_on"},
    };

    if (!PyArg_ParseTuple(args, "OOOOOOOn:bind", &sim, &event, &timeout,
                          &deferred, &process, &sched_error, &normal, &cap))
        return NULL;
    if (check_type(sim, "simulator") < 0 || check_type(event, "event") < 0
            || check_type(timeout, "timeout") < 0
            || check_type(deferred, "deferred") < 0
            || check_type(process, "process") < 0)
        return NULL;
    if (!PyType_IsSubtype((PyTypeObject *)timeout, (PyTypeObject *)event)
            || !PyType_IsSubtype((PyTypeObject *)process,
                                 (PyTypeObject *)event)) {
        PyErr_SetString(PyExc_TypeError,
                        "bind(): Timeout and Process must derive from Event");
        return NULL;
    }
    for (size_t i = 0; i < sizeof(slots) / sizeof(slots[0]); i++)
        if ((*slots[i].out = slot_offset(*slots[i].type, slots[i].name)) < 0)
            return NULL;

    Py_XSETREF(EventType, (PyTypeObject *)Py_NewRef(event));
    Py_XSETREF(TimeoutType, (PyTypeObject *)Py_NewRef(timeout));
    Py_XSETREF(DeferredType, (PyTypeObject *)Py_NewRef(deferred));
    Py_XSETREF(SchedulingError, Py_NewRef(sched_error));
    Py_XSETREF(Normal, Py_NewRef(normal));
    PoolCap = cap;

    if ((methods = PyDict_New()) == NULL)
        return NULL;
    for (PyMethodDef *def = simulator_methods; def->ml_name; def++) {
        PyObject *descr = PyDescr_NewMethod((PyTypeObject *)sim, def);
        if (descr == NULL
                || PyDict_SetItemString(methods, def->ml_name, descr) < 0) {
            Py_XDECREF(descr);
            Py_DECREF(methods);
            return NULL;
        }
        Py_DECREF(descr);
    }
    return methods;
}

static PyMethodDef module_methods[] = {
    {"bind", kernel_bind, METH_VARARGS,
     "bind(Simulator, Event, Timeout, Deferred, Process, SchedulingError, "
     "normal, pool_cap)\n--\n\n"
     "Check the classes' slot layout and return the compiled kernel's "
     "methods by name, ready to install on *Simulator*."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled event kernel of repro.sim: the schedule push, the "
             "dispatch loop, the timeout and defer factories and the "
             "process resume, installed on Simulator by "
             "repro.sim.engine.  repro.sim.kernel builds and loads it; "
             "the pure-Python kernel in engine.py is the reference.",
    .m_size = -1,
    .m_methods = module_methods,
};

static int
intern(PyObject **slot, const char *text)
{
    *slot = PyUnicode_InternFromString(text);
    return *slot == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *module;
    if (PyType_Ready(&ResumeType) < 0)
        return NULL;
    for (int i = 0; i < 4; i++)
        if ((State[i] = PyLong_FromLong(i)) == NULL)
            return NULL;
    Zero = State[0];
    One = State[1];
    if ((EmptyStr = PyUnicode_FromString("")) == NULL
            || intern(&str_succeed, "succeed") < 0
            || intern(&str_fail, "fail") < 0
            || intern(&str_wait_on, "_wait_on") < 0
            || intern(&str_throw, "throw") < 0
            || intern(&str_send, "send") < 0
            || intern(&str_value, "value") < 0)
        return NULL;
    module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    /* SOURCE_MARKER also keeps the marker in the binary for the
       loader's check. */
    if (PyModule_AddStringConstant(module, "SOURCE_SHA256",
                                   REPRO_KERNEL_SHA256) < 0
            || PyModule_AddStringConstant(module, "SOURCE_MARKER",
                                          source_marker) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
