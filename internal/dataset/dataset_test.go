package dataset

import (
	"testing"

	"cerfix/internal/core"
	"cerfix/internal/schema"
	"cerfix/internal/value"
)

func TestDemoFixtures(t *testing.T) {
	cust, person := CustSchema(), PersonSchema()
	if cust.Len() != 9 || person.Len() != 10 {
		t.Fatalf("schema widths = %d/%d", cust.Len(), person.Len())
	}
	rules := DemoRules()
	if rules.Len() != 9 {
		t.Fatalf("demo rules = %d", rules.Len())
	}
	if err := rules.Validate(cust, person); err != nil {
		t.Fatal(err)
	}
	rows := DemoMasterRows()
	if len(rows) != 3 {
		t.Fatalf("master rows = %d", len(rows))
	}
	for i, r := range rows {
		if len(r) != person.Len() {
			t.Fatalf("master row %d arity %d", i, len(r))
		}
	}
	if DemoInputExample1().Get("AC") != "020" {
		t.Fatal("Example 1 tuple wrong")
	}
	if DemoInputFig3().Get("FN") != "M." {
		t.Fatal("Fig 3 tuple wrong")
	}
	if DemoGroundTruthFig3().Get("FN") != "Mark" {
		t.Fatal("Fig 3 truth wrong")
	}
}

// The demo configuration must be consistent — this is experiment E1's
// core assertion and guards the fixture against regressions.
func TestDemoConfigurationConsistent(t *testing.T) {
	st, err := MasterStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range DemoMasterRows() {
		if _, err := st.InsertValues(row...); err != nil {
			t.Fatal(err)
		}
	}
	e, err := core.NewEngine(CustSchema(), DemoRules(), st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	if !rep.Consistent() {
		t.Fatalf("demo configuration inconsistent: %v", rep.Errors())
	}
}

func TestGenerateEntitiesDeterministic(t *testing.T) {
	a := NewCustomerGen(7).GenerateEntities(50)
	b := NewCustomerGen(7).GenerateEntities(50)
	for i := range a {
		if !a[i].Master.Equal(b[i].Master) {
			t.Fatalf("entity %d differs across same-seed runs", i)
		}
	}
	c := NewCustomerGen(8).GenerateEntities(50)
	same := 0
	for i := range a {
		if a[i].Master.Equal(c[i].Master) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical entities")
	}
}

func TestGeneratedEntitiesKeysUnique(t *testing.T) {
	entities := NewCustomerGen(3).GenerateEntities(500)
	zips := make(map[value.V]bool)
	mphns := make(map[value.V]bool)
	acHome := make(map[string]bool)
	acCity := make(map[value.V]value.V)
	for _, e := range entities {
		m := e.Master
		if zips[m[7]] {
			t.Fatalf("duplicate zip %s", m[7])
		}
		zips[m[7]] = true
		if mphns[m[4]] {
			t.Fatalf("duplicate mobile %s", m[4])
		}
		mphns[m[4]] = true
		key := string(m[2]) + "|" + string(m[3])
		if acHome[key] {
			t.Fatalf("duplicate (AC, Hphn) %s", key)
		}
		acHome[key] = true
		if prev, ok := acCity[m[2]]; ok && prev != m[6] {
			t.Fatalf("AC %s maps to cities %s and %s", m[2], prev, m[6])
		}
		acCity[m[2]] = m[6]
	}
}

// The generated master data keeps the demo rule set consistent at
// scale (error-severity issues only; cross-entity warnings allowed).
func TestGeneratedMasterConsistentWithDemoRules(t *testing.T) {
	entities := NewCustomerGen(11).GenerateEntities(200)
	st, err := MasterStore(entities)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(CustSchema(), DemoRules(), st)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	if !rep.Consistent() {
		t.Fatalf("generated master inconsistent: %v", rep.Errors())
	}
}

func TestCleanInputMatchesEntity(t *testing.T) {
	g := NewCustomerGen(5)
	entities := g.GenerateEntities(20)
	for _, e := range entities {
		in := g.CleanInput(e)
		if in.Get("FN") != e.Master[0] || in.Get("zip") != e.Master[7] {
			t.Fatalf("clean input drifted from entity: %v vs %v", in, e.Master)
		}
		switch in.Get("type") {
		case "1":
			if in.Get("phn") != e.Master[3] {
				t.Fatal("home phone mismatch")
			}
		case "2":
			if in.Get("phn") != e.Master[4] {
				t.Fatal("mobile phone mismatch")
			}
		default:
			t.Fatalf("bad type %q", in.Get("type"))
		}
	}
}

func TestGenerateWorkload(t *testing.T) {
	g := NewCustomerGen(13)
	w, err := g.GenerateWorkload(50, 200, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Truth) != 200 || len(w.Dirty) != 200 {
		t.Fatalf("workload sizes %d/%d", len(w.Truth), len(w.Dirty))
	}
	if w.Store.Len() != 50 {
		t.Fatalf("master size %d", w.Store.Len())
	}
	// Error cells roughly match rate * cells (30% of 1800).
	if w.ErrorCells < 350 || w.ErrorCells > 750 {
		t.Fatalf("ErrorCells = %d, expected around 540", w.ErrorCells)
	}
	// Dirty/truth aligned and genuinely different somewhere.
	diffs := 0
	for i := range w.Truth {
		diffs += len(w.Truth[i].DiffAttrs(w.Dirty[i]))
	}
	if diffs != w.ErrorCells {
		t.Fatalf("diff cells %d != ErrorCells %d", diffs, w.ErrorCells)
	}
}

func TestNoiseRateZeroAndOne(t *testing.T) {
	g := NewCustomerGen(17)
	entities := g.GenerateEntities(5)
	truth := g.CleanInput(entities[0])
	clean := NewNoise(1, 0)
	d, nerr := clean.Dirty(truth, nil)
	if nerr != 0 || !d.Equal(truth) {
		t.Fatal("rate 0 produced noise")
	}
	heavy := NewNoise(1, 1)
	d2, nerr2 := heavy.Dirty(truth, nil)
	if nerr2 != truth.Schema.Len() {
		t.Fatalf("rate 1 dirtied %d/%d cells", nerr2, truth.Schema.Len())
	}
	if d2.Equal(truth) {
		t.Fatal("rate 1 left tuple clean")
	}
}

func TestNoiseProtectedAttrs(t *testing.T) {
	g := NewCustomerGen(19)
	truth := g.CleanInput(g.GenerateEntities(1)[0])
	n := NewNoise(1, 1)
	n.Protected = []string{"zip", "type"}
	d, _ := n.Dirty(truth, nil)
	if d.Get("zip") != truth.Get("zip") || d.Get("type") != truth.Get("type") {
		t.Fatal("protected attribute dirtied")
	}
}

func TestNoiseKindsBehave(t *testing.T) {
	n := NewNoise(23, 1)
	sch := schema.MustNew("T", schema.Str("a"))
	mk := func(v string) *schema.Tuple { return schema.MustTuple(sch, value.V(v)) }
	// Abbreviate.
	n.Kinds = []NoiseKind{NoiseAbbreviate}
	d, _ := n.Dirty(mk("Mark"), nil)
	if d.Get("a") != "M." {
		t.Fatalf("abbreviate = %q", d.Get("a"))
	}
	// Null.
	n.Kinds = []NoiseKind{NoiseNull}
	d, _ = n.Dirty(mk("Mark"), nil)
	if !d.Get("a").IsNull() {
		t.Fatalf("null = %q", d.Get("a"))
	}
	// Case.
	n.Kinds = []NoiseKind{NoiseCase}
	d, _ = n.Dirty(mk("Elm St"), nil)
	if d.Get("a") != "elm st" {
		t.Fatalf("case = %q", d.Get("a"))
	}
	// Wrong entity pulls from the pool.
	n.Kinds = []NoiseKind{NoiseWrongEntity}
	pool := []*schema.Tuple{mk("Donor")}
	d, _ = n.Dirty(mk("Mark"), pool)
	if d.Get("a") != "Donor" {
		t.Fatalf("wrong-entity = %q", d.Get("a"))
	}
	// Transpose changes adjacent chars.
	n.Kinds = []NoiseKind{NoiseTranspose}
	d, _ = n.Dirty(mk("12"), nil)
	if d.Get("a") != "21" {
		t.Fatalf("transpose = %q", d.Get("a"))
	}
	// Typo on digits stays a digit.
	n.Kinds = []NoiseKind{NoiseTypo}
	d, _ = n.Dirty(mk("5"), nil)
	got := string(d.Get("a"))
	if len(got) != 1 || got[0] < '0' || got[0] > '9' || got == "5" {
		t.Fatalf("digit typo = %q", got)
	}
}

func TestNoiseKindStrings(t *testing.T) {
	for _, k := range AllNoiseKinds {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestHospGenerator(t *testing.T) {
	g := NewHospGen(29)
	rows := g.GenerateMasterRows(40)
	if len(rows) < 40 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Functional structure: prov -> hospital, zip -> city/state,
	// phone -> zip, mcode -> mname.
	provH := map[value.V]value.V{}
	zipCity := map[value.V]value.V{}
	phoneZip := map[value.V]value.V{}
	codeName := map[value.V]value.V{}
	for _, r := range rows {
		checkFD := func(m map[value.V]value.V, k, v value.V, label string) {
			if prev, ok := m[k]; ok && prev != v {
				t.Fatalf("%s violated: %s -> %s and %s", label, k, prev, v)
			}
			m[k] = v
		}
		checkFD(provH, r[0], r[1], "prov->hospital")
		checkFD(zipCity, r[5], r[3], "zip->city")
		checkFD(phoneZip, r[7], r[5], "phone->zip")
		checkFD(codeName, r[8], r[9], "mcode->mname")
	}
}

func TestHospRulesConsistent(t *testing.T) {
	g := NewHospGen(31)
	w, err := g.GenerateWorkload(30, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(HospSchema(), HospRules(), w.Store)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	if !rep.Consistent() {
		t.Fatalf("HOSP rules inconsistent: %v", rep.Errors())
	}
}

func TestHospWorkload(t *testing.T) {
	g := NewHospGen(37)
	w, err := g.GenerateWorkload(20, 100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Dirty) != 100 || len(w.Truth) != 100 {
		t.Fatalf("sizes %d/%d", len(w.Dirty), len(w.Truth))
	}
	if w.ErrorCells == 0 {
		t.Fatal("no errors injected")
	}
	if w.Store.Len() == 0 {
		t.Fatal("empty master")
	}
}

func TestDblpGeneratorStructure(t *testing.T) {
	g := NewDblpGen(51)
	rows := g.GenerateMasterRows(80)
	if len(rows) != 80 {
		t.Fatalf("rows = %d", len(rows))
	}
	keyTitle := map[value.V]value.V{}
	titleYearKey := map[string]value.V{}
	venueFull := map[value.V]value.V{}
	for _, r := range rows {
		if prev, ok := keyTitle[r[0]]; ok && prev != r[1] {
			t.Fatalf("key -> title violated at %s", r[0])
		}
		keyTitle[r[0]] = r[1]
		tk := string(r[1]) + "|" + string(r[5])
		if prev, ok := titleYearKey[tk]; ok && prev != r[0] {
			t.Fatalf("title,year -> key violated at %s", tk)
		}
		titleYearKey[tk] = r[0]
		if prev, ok := venueFull[r[3]]; ok && prev != r[4] {
			t.Fatalf("venue -> vfull violated at %s", r[3])
		}
		venueFull[r[3]] = r[4]
	}
}

func TestDblpRulesConsistent(t *testing.T) {
	g := NewDblpGen(53)
	w, err := g.GenerateWorkload(40, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(DblpSchema(), DblpRules(), w.Store)
	if err != nil {
		t.Fatal(err)
	}
	rep := e.CheckConsistency()
	if !rep.Consistent() {
		t.Fatalf("DBLP rules inconsistent: %v", rep.Errors())
	}
}

// Citation cleaning end to end: validating (title, year) identifies
// the publication via d6 and the key then fixes everything else.
func TestDblpCitationFix(t *testing.T) {
	g := NewDblpGen(57)
	w, err := g.GenerateWorkload(40, 30, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(DblpSchema(), DblpRules(), w.Store)
	if err != nil {
		t.Fatal(err)
	}
	sch := DblpSchema()
	for i := range w.Dirty {
		dirty := w.Dirty[i].Clone()
		dirty.Set("title", w.Truth[i].Get("title"))
		dirty.Set("year", w.Truth[i].Get("year"))
		res := e.Chase(dirty, schema.SetOfNames(sch, "title", "year"))
		if !res.Tuple.Equal(w.Truth[i]) {
			t.Fatalf("tuple %d: %v != %v", i, res.Tuple, w.Truth[i])
		}
		if !res.AllValidated() || len(res.Conflicts) != 0 {
			t.Fatalf("tuple %d incomplete or conflicted", i)
		}
	}
}
