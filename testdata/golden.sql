-- Golden end-to-end script: the paper's §2.1 workflow, twice over —
-- two independent classification views in one catalog, both served
-- through concurrent maintenance engines. The same transcript must
-- come out of (a) an embedded hazy.Session, (b) hazyql -f, and
-- (c) a hazyd server driven through the SQL wire command.

CREATE TABLE papers (id BIGINT, title TEXT) KEY id;
CREATE TABLE feedback (id BIGINT, label BIGINT) KEY id;
CREATE TABLE docs (id BIGINT, body TEXT) KEY id;
CREATE TABLE votes (id BIGINT, label BIGINT) KEY id;

INSERT INTO papers VALUES
  (1, 'relational query optimization and indexing'),
  (2, 'kernel scheduling for multicore operating systems'),
  (3, 'sql views and transaction processing'),
  (4, 'device drivers and interrupt handling'),
  (5, 'join algorithms for relational databases');
INSERT INTO docs VALUES
  (10, 'lottery winner click here now'),
  (11, 'meeting notes from the quarterly design review'),
  (12, 'you are a winner click to claim the lottery prize'),
  (13, 'agenda and notes for the review meeting');

CREATE CLASSIFICATION VIEW labeled KEY id
  ENTITIES FROM papers KEY id
  EXAMPLES FROM feedback KEY id LABEL label
  FEATURE FUNCTION tf_bag_of_words USING SVM;
CREATE CLASSIFICATION VIEW spam KEY id
  ENTITIES FROM docs KEY id
  EXAMPLES FROM votes KEY id LABEL label
  FEATURE FUNCTION tf_bag_of_words USING LOGISTIC;

ATTACH ENGINE TO labeled;
ATTACH ENGINE TO spam QUEUE 128 BATCH 32;

INSERT INTO feedback VALUES (1, 1), (2, -1), (3, 1), (4, -1);
INSERT INTO votes VALUES (10, 1), (11, -1);

SELECT class FROM labeled WHERE id = 5;
SELECT id FROM labeled WHERE class = 1;
SELECT COUNT(*) FROM labeled WHERE class = 1;
SELECT id, class FROM spam;
SELECT COUNT(*) FROM spam WHERE class = 1;
SELECT title FROM papers WHERE id = 2;
SELECT COUNT(*) FROM votes;

-- Every read shape lowers to its own physical plan, and EXPLAIN pins
-- the choice (snapshot-backed, since both views are engined here).
EXPLAIN SELECT class FROM labeled WHERE id = 5;
EXPLAIN SELECT id FROM labeled WHERE class = 1;
EXPLAIN SELECT COUNT(*) FROM labeled WHERE class = 1;
EXPLAIN SELECT id FROM labeled WHERE eps >= -0.75 AND eps <= 0.75;
EXPLAIN SELECT id FROM labeled WHERE eps > 0 AND class = 1;
EXPLAIN SELECT id, class FROM spam;
EXPLAIN SELECT id FROM labeled ORDER BY ABS(eps) LIMIT 2;
EXPLAIN SELECT id, class FROM labeled ORDER BY id DESC LIMIT 3;
EXPLAIN SELECT title FROM papers WHERE id = 2;
EXPLAIN SELECT COUNT(*) FROM feedback WHERE label = 1;

-- EXPLAIN ANALYZE runs the plan to completion and annotates every
-- node with the rows it produced and its inclusive wall time. Row
-- counts are deterministic for these shapes -- the wide eps band
-- covers every row regardless of where the maintenance watermark
-- sits -- while times are normalized by the harness before comparing.
EXPLAIN ANALYZE SELECT class FROM labeled WHERE id = 5;
EXPLAIN ANALYZE SELECT id FROM labeled WHERE class = 1;
EXPLAIN ANALYZE SELECT COUNT(*) FROM labeled WHERE eps >= -100.0 AND eps <= 100.0;
EXPLAIN ANALYZE SELECT id FROM labeled ORDER BY ABS(eps) LIMIT 2;

-- The eps column, ORDER BY, and LIMIT execute too. Wide eps bands
-- keep the transcript independent of exact model floats, and the
-- boundary walk is exercised only through EXPLAIN above: its row
-- order breaks eps ties whose values depend on when Skiing last
-- reorganized, which is timing-based (the SQL-vs-MostUncertain
-- agreement is pinned in query_test.go instead).
SELECT COUNT(*) FROM labeled WHERE eps >= -100.0 AND eps <= 100.0;
SELECT id, class FROM labeled ORDER BY id DESC LIMIT 3;
SELECT title FROM papers ORDER BY title LIMIT 2;
SELECT id FROM feedback WHERE label = -1 ORDER BY id DESC;

-- Late-arriving entities are classified on insert, through the
-- engines (type-1 dynamic data).
INSERT INTO papers VALUES (6, 'cost based query optimization of sql database views');
INSERT INTO docs VALUES (14, 'claim your lottery prize now winner');
SELECT class FROM labeled WHERE id = 6;
SELECT class FROM spam WHERE id = 14;

DETACH ENGINE FROM labeled;
SELECT class FROM labeled WHERE id = 6;
SELECT COUNT(*) FROM spam;

-- Detached, the same statements plan against the live structure.
EXPLAIN SELECT id FROM labeled WHERE class = 1;
EXPLAIN SELECT id FROM labeled WHERE eps >= 0.0;
SELECT COUNT(*) FROM labeled WHERE eps >= -100.0;

-- Durability: CHECKPOINT flushes both manifests and every dirty heap
-- page, then prunes the write-ahead log below the recorded position.
CHECKPOINT;
SELECT COUNT(*) FROM papers;

-- Partition-striped maintenance: PARTITIONS hash-partitions the view
-- into stripes with per-stripe clustering, watermarks, and Skiing
-- over one shared model. Contents match an unstriped view. The view
-- gathers its stripes in (eps, id) order inside one cursor, so EXPLAIN
-- shows the same single-leaf plans live and, once an engine is
-- attached, over the snapshot.
CREATE TABLE items (id BIGINT, body TEXT) KEY id;
CREATE TABLE marks (id BIGINT, label BIGINT) KEY id;
INSERT INTO items VALUES
  (20, 'btree index scan and join ordering'),
  (21, 'interrupt latency in kernel drivers'),
  (22, 'sql transaction isolation levels'),
  (23, 'scheduler preemption and context switching'),
  (24, 'query planner statistics and selectivity'),
  (25, 'filesystem journaling under write load');
CREATE CLASSIFICATION VIEW striped KEY id
  ENTITIES FROM items KEY id
  EXAMPLES FROM marks KEY id LABEL label
  FEATURE FUNCTION tf_bag_of_words USING SVM PARTITIONS 4;
INSERT INTO marks VALUES (20, 1), (21, -1), (22, 1), (23, -1);

SELECT id, class FROM striped;
SELECT COUNT(*) FROM striped WHERE class = 1;
SELECT COUNT(*) FROM striped WHERE eps >= -100.0 AND eps <= 100.0;
EXPLAIN SELECT id FROM striped WHERE eps >= -0.75 AND eps <= 0.75;
EXPLAIN SELECT id, class FROM striped;
-- EXPLAIN ANALYZE over the live striped layout: one eps-range leaf
-- whose cursor merges the stripes.
EXPLAIN ANALYZE SELECT COUNT(*) FROM striped WHERE eps >= -100.0 AND eps <= 100.0;

-- Engined, the published snapshot gathers its stripes inside one
-- cursor: same answers, single-cursor plans.
ATTACH ENGINE TO striped;
INSERT INTO items VALUES (26, 'cost model for join ordering in the query planner');
SELECT class FROM striped WHERE id = 26;
SELECT COUNT(*) FROM striped WHERE class = 1;
EXPLAIN SELECT id FROM striped WHERE eps >= -0.75 AND eps <= 0.75;
DETACH ENGINE FROM striped;
SELECT id, class FROM striped ORDER BY id DESC LIMIT 3;

-- Replication observability: the replica_* collectors are registered
-- on every database (zero when the process is not replicating), so
-- dashboards and scripts can rely on the names before a replica ever
-- attaches. SHOW STATS FOR replica filters to them by prefix.
SHOW STATS FOR replica;
