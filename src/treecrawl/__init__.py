"""Focused web crawling with a reinforcement-learning agent over a
tree-structured frontier."""

__version__ = "0.1.0"

from .embeddings import (EmbeddingTable, KeywordSet, cosine, expand_keywords,
                         load_embeddings, load_keywords, threshold_b)
from .reward import (PageText, RelevanceModel, keyword_count, keyword_vector,
                     relevance_probability, reward, train)
from .graph import (CrawlGraph, OutlinkCandidate, build_state_action,
                    build_state_actions, seed_state_action)
from .qlearn import (AgentConfig, QNetwork, ReplayBatch, ReplayBuffer, ReplayRecord,
                     ddqn_target, seed_replay, train_step)
from .frontier_tree import (FlatFrontier, FrontierBlock, FrontierEntry,
                            FrontierExhaustedError, TreeFrontier, best_split)
from .fetch import FetchFailure, LiveFetcher, Page, SimFetcher
from .simworld import (SimWorld, SimWorldParams, generate_sim_world, load_world,
                       save_world, training_corpus, world_digest)
from .crawler import (CrawlConfig, CrawlResult, crawl, enforce_max_domain,
                      metrics)
from .urls import domain_of, normalize_url

__all__ = [name for name in dir() if not name.startswith("_")]
