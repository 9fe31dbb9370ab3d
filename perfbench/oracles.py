"""Reference models that predict the program's outputs without running it.

Each oracle is written from the protocol or the C semantics it checks,
not from a stored copy of the program's output, so a change that alters
what the program answers fails the run.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple


class HttpdModel:
    """Predicts every httpd reply line from the request stream.

    ``served`` counts every non-empty request line that is not QUIT,
    including malformed ones, as the index page reports it.
    """

    def __init__(self) -> None:
        self.served = 0

    def reply(self, line: bytes) -> bytes:
        if not line:
            return b""
        if line.startswith(b"QUIT"):
            raise ValueError("a benign stream never shuts the server down")
        self.served += 1
        if not line.startswith(b"GET "):
            return b"HTTP/1.0 400 Bad Request"
        path, space, _ = line[4:].partition(b" ")
        if not space:
            return b"HTTP/1.0 400 Bad Request"
        if path == b"/":
            return b"HTTP/1.0 200 OK body=index served=%d" % self.served
        if path.startswith(b"/echo/"):
            return b"HTTP/1.0 200 OK body=" + path[6:]
        return b"HTTP/1.0 404 Not Found path=" + path


class KvdModel:
    """Predicts every kvd reply line: a dict with at most 8 keys."""

    SLOTS = 8

    def __init__(self) -> None:
        self.store: Dict[bytes, bytes] = {}

    def reply(self, line: bytes) -> bytes:
        if not line:
            return b""
        verb, rest = line[:4], line[4:]
        if verb == b"GET ":
            value = self.store.get(rest)
            return b"MISS" if value is None else b"VAL " + value
        if verb == b"SET ":
            key, space, value = rest.partition(b" ")
            if not space:
                return b"ERR bad request"
            if key not in self.store and len(self.store) >= self.SLOTS:
                return b"ERR full"
            self.store[key] = value
            return b"OK"
        if verb == b"DEL ":
            if self.store.pop(rest, None) is None:
                return b"MISS"
            return b"DELETED"
        if line.startswith(b"QUIT"):
            raise ValueError("a benign stream never shuts the server down")
        return b"ERR bad request"


MODELS = {"httpd": HttpdModel, "kvd": KvdModel}


#: (function, parameter, test value) -> the verdicts C allows.  Values
#: whose behaviour C leaves undefined (toupper/isalpha outside unsigned
#: char and EOF, abs(INT_MIN)) are deliberately absent.
C_SEMANTICS: Dict[Tuple[str, str, str], frozenset] = {}


def _expect(outcomes: str, *probes: str) -> None:
    allowed = frozenset(outcomes.split("|"))
    for probe in probes:
        function, param, label = probe.split("/")
        C_SEMANTICS[(function, param, label)] = allowed


# dereferencing NULL or an unmapped address faults
_expect("crash", "strlen/s/null", "strlen/s/unmapped_pointer",
        "strcpy/dest/null", "strcpy/src/null",
        "strcpy/dest/readonly_destination", "memcpy/dest/null",
        "memcpy/src/null", "memset/s/null", "strcmp/s1/null",
        "strcmp/s2/null", "atoi/nptr/null", "strchr/s/null",
        "qsort/compar/null")
# a scan with no terminator before the end of memory never returns
_expect("crash|hang", "strlen/s/unterminated_huge",
        "strcpy/src/unterminated_huge")
# writing past the end of a heap buffer is never a clean return
_expect("crash|silent|abort", "strcpy/dest/one_byte_buffer",
        "memcpy/n/bound_x1+1", "memcpy/dest/undersized_area")
# well-formed calls return normally
_expect("pass", "strlen/s/empty_string", "strlen/s/plain_string",
        "strlen/s/readonly_string", "strcpy/dest/exact_required",
        "strcpy/src/plain_string", "memcpy/n/zero", "memset/n/zero",
        "strcmp/s1/plain_string", "atoi/nptr/plain_string",
        "qsort/nmemb/zero", "free/ptr/null", "free/ptr/live_allocation",
        "malloc/size/zero", "toupper/c/eof", "toupper/c/zero",
        "toupper/c/letter", "toupper/c/max_uchar", "isalpha/c/eof",
        "isalpha/c/letter", "isalpha/c/max_uchar", "abs/j/zero",
        "abs/j/minus_one", "abs/j/int_max", "strchr/c/zero")
# glibc detects invalid and double frees and aborts
_expect("abort", "free/ptr/already_freed", "free/ptr/interior_pointer")
# an unsatisfiable allocation returns NULL with ENOMEM
_expect("error", "malloc/size/size_max", "malloc/size/two_to_31")


def check_campaign(planned: List[tuple], verdicts: List[tuple],
                   fuel_budget: int) -> List[str]:
    """Problems with one campaign pass; empty when it is correct.

    ``planned`` lists ``(function, param, label)`` per probe in run
    order; ``verdicts`` holds ``(outcome or None, fuel, setup_error)``
    for the same probes.
    """
    problems: List[str] = []
    if len(verdicts) != len(planned):
        problems.append(
            f"{len(planned)} probes planned, {len(verdicts)} verdicts")
    seen = set()
    for key, (outcome, fuel, setup_error) in zip(planned, verdicts):
        if (outcome is None) == (not setup_error):
            problems.append(f"{'/'.join(key)}: not exactly one verdict")
            continue
        seen.add(key)
        if outcome == "hang" and fuel < fuel_budget:
            problems.append(f"{'/'.join(key)}: HANG after only {fuel} "
                            f"of {fuel_budget} fuel")
        allowed = C_SEMANTICS.get(key)
        if allowed is not None and outcome not in allowed:
            problems.append(f"{'/'.join(key)}: {outcome}, C allows "
                            f"{'|'.join(sorted(allowed))}")
    missing = sorted(set(C_SEMANTICS) - seen)
    if missing:
        problems.append(f"stated probes never ran: {missing[:3]}")
    return problems


def ingest_expectation(states: Iterable[tuple]) -> Tuple[Counter, Counter]:
    """Per-function call totals and per-application document counts.

    ``states`` yields ``(application, {function: calls})`` per shipped
    document; the sums are taken here, not by the server.
    """
    calls: Counter = Counter()
    apps: Counter = Counter()
    for application, function_calls in states:
        apps[application] += 1
        calls.update(function_calls)
    return calls, apps
