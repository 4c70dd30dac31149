"""The in-process query service runtime (catalog, caching, batching).

The paper's central move — queries are *terms* applied to *encoded
databases* (Definition 3.10) — makes a serving layer unusually clean:

* the encoding of a relation is a value, built once and only for the
  engines that reduce over it (:mod:`repro.service.engines`);
* a query's normal form is a pure function of (query term, database
  version), so results are perfectly cacheable under a structural term
  digest (:mod:`repro.service.cache`, :func:`repro.lam.terms.digest`);
* evaluation of independent requests commutes, so batches fan out over a
  thread pool with per-request fuel/depth budgets
  (:mod:`repro.service.runtime`).

Public API::

    from repro.service import Catalog, QueryRequest, QueryService

    service = QueryService()
    service.catalog.register_database("main", database)
    service.catalog.register_query("tc", transitive_closure_query())
    result = service.execute_batch([
        QueryRequest(query="tc", database="main"), ...
    ])
"""

from repro.service.cache import CachedResult, CacheStats, ResultCache
from repro.service.catalog import Catalog, DatabaseEntry, QueryEntry
from repro.service.engines import (
    ENGINES,
    EngineResult,
    evaluate_term_query,
    validate_engine,
)
from repro.service.runtime import (
    BatchResult,
    QueryRequest,
    QueryResponse,
    QueryService,
)
from repro.shard.policy import ShardPolicy

__all__ = [
    "BatchResult",
    "ShardPolicy",
    "CachedResult",
    "CacheStats",
    "Catalog",
    "DatabaseEntry",
    "ENGINES",
    "EngineResult",
    "QueryEntry",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ResultCache",
    "evaluate_term_query",
    "validate_engine",
]
