"""Redis-like key-value store: the paper's evaluation substrate.

The paper adds soft memory to Redis by storing the elements of its hash
table buckets in soft memory (25 lines changed). Real Redis is 258K
lines of C we cannot link against, so this package provides a faithful
single-threaded stand-in:

* :mod:`~repro.kvstore.resp` — RESP2 wire protocol codec,
* :mod:`~repro.kvstore.dict` — the keyspace: a dict from key to the
  entry's soft pointer, the shape ``SoftHashTable`` has, with every
  bucket entry living in soft memory,
* :mod:`~repro.kvstore.store` — keyspace, TTLs, memory accounting, and
  the reclamation callback that cleans up associated traditional memory
  (the code path the paper measures as dominating reclamation time),
* :mod:`~repro.kvstore.server` / :mod:`~repro.kvstore.client` — bytes-in
  bytes-out command dispatch and the two clients (in-process, TCP),
* :mod:`~repro.kvstore.tcp` — the epoll event-loop transport.
"""

from repro.kvstore.client import KvClient, TcpKvClient
from repro.kvstore.dict import SoftDict
from repro.kvstore.resp import RespError, RespParser, encode_command, encode_reply
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tcp import TcpKvServer
from repro.kvstore.values import WrongTypeError

__all__ = [
    "DataStore",
    "KvClient",
    "KvServer",
    "RespError",
    "RespParser",
    "SoftDict",
    "StoreConfig",
    "TcpKvClient",
    "TcpKvServer",
    "WrongTypeError",
    "encode_command",
    "encode_reply",
]
