"""Core 64-bit integer mixers.

All functions operate on and return Python ints constrained to 64 bits via
:data:`MASK64`.  They are deliberately dependency-free and allocation-light:
these run on the per-packet hot path of every load balancer in the library.
"""

MASK64 = (1 << 64) - 1

# Constants from splitmix64 (Steele, Lea, Flood 2014).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB

# Constants from the MurmurHash3 64-bit finalizer.
_MM_M1 = 0xFF51AFD7ED558CCD
_MM_M2 = 0xC4CEB9FE1A85EC53


def splitmix64(x: int) -> int:
    """Mix a 64-bit integer with one splitmix64 round.

    Advances ``x`` by the golden-gamma increment and applies the splitmix64
    output function.  Passes BigCrush when iterated; ideal for deriving
    per-server seeds and workload RNG streams.
    """
    x = (x + _SM_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _SM_M1) & MASK64
    x = ((x ^ (x >> 27)) * _SM_M2) & MASK64
    return x ^ (x >> 31)


def fmix64(x: int) -> int:
    """MurmurHash3 64-bit finalizer: full-avalanche bijection on 64 bits."""
    x &= MASK64
    x = ((x ^ (x >> 33)) * _MM_M1) & MASK64
    x = ((x ^ (x >> 33)) * _MM_M2) & MASK64
    return x ^ (x >> 33)


def mix2(a: int, b: int) -> int:
    """Combine two 64-bit values into one well-mixed 64-bit value.

    The combination is *not* symmetric (``mix2(a, b) != mix2(b, a)`` in
    general), which is what rendezvous hashing needs: the weight of
    (server, key) must be independent from (key, server).
    """
    return fmix64((a * _SM_GAMMA + b) & MASK64)

