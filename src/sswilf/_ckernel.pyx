# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled sweep kernel; same interface and byte-level output as _pykernel."""

from cpython.bytes cimport PyBytes_FromStringAndSize

DEF MAXN = 16
DEF BUFSZ = 256  # n(n-1)/2 entries + n-1 separators <= 135 for n = 16


cdef long long _factorial(int k):
    cdef long long f = 1
    cdef int i
    for i in range(2, k + 1):
        f *= i
    return f


cdef inline Py_ssize_t _key_into(int* pos, int n, int* positions, char* buf) noexcept:
    cdef Py_ssize_t blen = 0
    cdef int m = 1
    cdef int letter, p, k, j, prev
    positions[0] = pos[n]
    for letter in range(n - 1, 0, -1):
        p = pos[letter]
        k = m
        while k > 0 and positions[k - 1] > p:
            positions[k] = positions[k - 1]
            k -= 1
        positions[k] = p
        m += 1
        prev = positions[0]
        for j in range(1, m):
            buf[blen] = <char> (positions[j] - prev)
            prev = positions[j]
            blen += 1
        buf[blen] = 0
        blen += 1
    return blen


cdef inline bint _advance(int* perm, int n) noexcept:
    cdef int i = n - 2
    cdef int j, t
    while i >= 0 and perm[i] >= perm[i + 1]:
        i -= 1
    if i < 0:
        return 0
    j = n - 1
    while perm[j] <= perm[i]:
        j -= 1
    t = perm[i]; perm[i] = perm[j]; perm[j] = t
    i += 1
    j = n - 1
    while i < j:
        t = perm[i]; perm[i] = perm[j]; perm[j] = t
        i += 1
        j -= 1
    return 1


cdef void _unrank(int n, long long rank, int* out) noexcept:
    cdef int letters[MAXN]
    cdef int i, k, idx, remaining
    cdef long long f
    for i in range(n):
        letters[i] = i + 1
    remaining = n
    for k in range(n):
        f = _factorial(remaining - 1)
        idx = <int> (rank // f)
        rank = rank % f
        out[k] = letters[idx]
        for i in range(idx, remaining - 1):
            letters[i] = letters[i + 1]
        remaining -= 1


def sweep_block(int n, long long start, long long count):
    """Aggregate a lexicographic block; see _pykernel.sweep_block."""
    if n < 2 or n > MAXN:
        raise ValueError(f"kernel supports sizes 2..{MAXN}, got {n}")
    if start < 0 or count < 0 or start + count > _factorial(n):
        raise ValueError("block out of range")
    cdef int perm[MAXN]
    cdef int pos[MAXN + 1]
    cdef int positions[MAXN + 1]
    cdef char buf[BUFSZ]
    cdef dict acc = {}
    cdef long long step, code
    cdef int i
    cdef Py_ssize_t blen
    cdef object key, entry
    _unrank(n, start, perm)
    for step in range(count):
        for i in range(n):
            pos[perm[i]] = i + 1
        blen = _key_into(pos, n, positions, buf)
        key = PyBytes_FromStringAndSize(buf, blen)
        entry = acc.get(key)
        if entry is None:
            code = 0
            for i in range(n):
                code = (code << 4) | (perm[i] - 1)
            acc[key] = [1, code]
        else:
            (<list> entry)[0] += 1
        _advance(perm, n)
    return acc
