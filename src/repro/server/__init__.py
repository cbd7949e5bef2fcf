"""Server side: object database and query-processing front end."""

from repro.server.database import ObjectDatabase, StoredObject
from repro.server.planner import FrontierPlanner, PlannerCounters
from repro.server.scene import DEFAULT_RETAINED_EPOCHS, SceneDatabase
from repro.server.server import BlockQuote, Server

__all__ = [
    "ObjectDatabase",
    "SceneDatabase",
    "DEFAULT_RETAINED_EPOCHS",
    "StoredObject",
    "Server",
    "BlockQuote",
    "FrontierPlanner",
    "PlannerCounters",
]
