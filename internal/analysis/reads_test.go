package analysis

import (
	"testing"
)

// TestReadsThroughEveryExprForm — rules whose conditions bury a base-table
// read inside each expression construct must be seen as readers of that
// table (driving sqlast.ExprTableRefs through every branch).
func TestReadsThroughEveryExprForm(t *testing.T) {
	conditions := []string{
		`not exists (select * from shared)`,
		`(select count(*) from shared) > 0 and true`,
		`(select count(*) from shared) is null`,
		`1 between 0 and (select count(*) from shared)`,
		`(select min(x) from shared) like 'a%'`,
		`1 in (2, (select count(*) from shared))`,
		`1 in (select x from shared)`,
		`1 > all (select x from shared)`,
		`coalesce((select count(*) from shared), 0) > 0`,
		`-(select count(*) from shared) < 0`,
		`case when exists (select * from shared) then true else false end`,
		`exists (select (select count(*) from shared) from t group by x having count(*) > 0 order by x)`,
	}
	for _, cond := range conditions {
		defs := []RuleDef{
			def(t, `create rule writer when inserted into t then insert into shared values (1) end`),
			def(t, `create rule reader when inserted into t if `+cond+` then delete from other end`),
		}
		rep := Analyze(defs, nil)
		// writer writes `shared`, reader reads it, both trigger on t: the
		// pair must be flagged.
		if len(rep.Conflicts) != 1 {
			t.Errorf("condition %q: read of shared not detected (conflicts=%v)", cond, rep.Conflicts)
		}
	}
}

// TestReadsInActionPositions — reads hidden inside action statements.
func TestReadsInActionPositions(t *testing.T) {
	actions := []string{
		`insert into other (select x from shared)`,
		`insert into other values ((select count(*) from shared))`,
		`delete from other where x in (select x from shared)`,
		`update other set x = (select count(*) from shared)`,
		`update other set x = 1 where x in (select x from shared)`,
		`select * from shared`,
	}
	for _, act := range actions {
		defs := []RuleDef{
			def(t, `create rule writer when inserted into t then insert into shared values (1) end`),
			def(t, `create rule reader when inserted into t then `+act+` end`),
		}
		rep := Analyze(defs, nil)
		if len(rep.Conflicts) != 1 {
			t.Errorf("action %q: read of shared not detected (conflicts=%v)", act, rep.Conflicts)
		}
	}
}
