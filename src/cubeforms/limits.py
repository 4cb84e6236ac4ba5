"""Input bounds, the one place each lives. Every library module imports the
caps it checks, and the CLI prints them in its help without importing the
library. Times are on a 2-core VM.
"""

# enumerate_class_group: about |D|/6 window tests, 0.95 s at -99999971 (fresh process)
DISC_CAP = 10 ** 8

# count_orbits factors 4m and 4n by trial division, once each; at
# m = n = 999999999989, a prime, that takes about 0.13 s
MN_CAP = 10 ** 12

# verify_composition_law builds h^2 cubes, about 18 us each: about 3 s at
# the cap (h = 398 at D = -60359)
CLASS_CAP = 400

# random cases per suite: at the cap about 35 s (characters), 1.5 s (fusion)
CASES_CAP = 10 ** 5

# verify_ptilde2 brute-forces modulo 2^(lmax + 2), so its time doubles per step
LMAX_CAP = 20

# every size sieves the primes up to N into a bytearray of one byte per odd
# integer; coeffs_A, coeffs_rhs and zeta wmds build O(N) coefficient vectors
# over them (a coeffs_A row about 0.3 s and 38 MiB at the cap), verify prop2
# none (about 0.35 s and 18 MiB, fresh process). arith keeps the largest
# sieve it has built, so at most the 78 498 primes up to N_CAP stay held for
# the life of the process
N_CAP = 10**6

# shintani_Z sieves the primes up to amax once, then builds one row
# a -> A(+-d, 4a) at a time: at the cap about 0.4 s for 1000 x 1000, 0.6 s and
# 39 MiB peak RSS for amax = 10^6, and 1.5 s for dmax = 10^6 (fresh process)
SHINTANI_CAP = 10**6

# verify_local_identities expands each series to this order at most: about
# 0.19 s at the cap (median of 10 fresh processes, Python 3.11), and the cost grows
# faster than the order
ORDER_CAP = 1000
