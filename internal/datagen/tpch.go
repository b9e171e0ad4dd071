package datagen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"rheem/internal/core"
)

// TPC-H-lite: the eight-table TPC-H schema scaled down ~1000x so scale
// factor 1 is laptop-sized while keeping the official per-table row ratios
// and join selectivities (the polystore experiments, Figures 2(d) and
// 10(a), depend on those ratios).

// Column ordinals of the generated tables.
const (
	// REGION: (regionkey, name)
	RegionKey, RegionName = 0, 1
	// NATION: (nationkey, name, regionkey)
	NationKey, NationName, NationRegionKey = 0, 1, 2
	// SUPPLIER: (suppkey, name, nationkey, acctbal)
	SuppKey, SuppName, SuppNationKey, SuppAcctBal = 0, 1, 2, 3
	// CUSTOMER: (custkey, name, nationkey, acctbal, mktsegment)
	CustKey, CustName, CustNationKey, CustAcctBal, CustSegment = 0, 1, 2, 3, 4
	// ORDERS: (orderkey, custkey, orderdate, totalprice)
	OrderKey, OrderCustKey, OrderDate, OrderTotal = 0, 1, 2, 3
	// LINEITEM: (orderkey, suppkey, extendedprice, discount, quantity)
	LIOrderKey, LISuppKey, LIExtPrice, LIDiscount, LIQuantity = 0, 1, 2, 3, 4
)

// RegionNames are the five TPC-H regions.
var RegionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// TPCH holds a generated TPC-H-lite database.
type TPCH struct {
	Region   []core.Record
	Nation   []core.Record
	Supplier []core.Record
	Customer []core.Record
	Orders   []core.Record
	Lineitem []core.Record
}

// Sizes reports the per-table row counts.
func (t *TPCH) Sizes() map[string]int {
	return map[string]int{
		"region": len(t.Region), "nation": len(t.Nation),
		"supplier": len(t.Supplier), "customer": len(t.Customer),
		"orders": len(t.Orders), "lineitem": len(t.Lineitem),
	}
}

// GenTPCH generates the database at the given (downscaled) scale factor:
// sf=1 yields 100 suppliers, 1500 customers, 15000 orders, ~60000
// lineitems — the official 10k/150k/1.5M/6M ratios divided by 100.
func GenTPCH(sf float64, seed int64) *TPCH {
	rng := rand.New(rand.NewSource(seed))
	db := &TPCH{}
	for rk, name := range RegionNames {
		db.Region = append(db.Region, core.Record{int64(rk), name})
	}
	const nations = 25
	for nk := 0; nk < nations; nk++ {
		db.Nation = append(db.Nation, core.Record{
			int64(nk), fmt.Sprintf("NATION_%02d", nk), int64(nk % len(RegionNames)),
		})
	}
	nSupp := scaled(100, sf)
	for sk := 0; sk < nSupp; sk++ {
		db.Supplier = append(db.Supplier, core.Record{
			int64(sk), fmt.Sprintf("Supplier#%06d", sk), int64(rng.Intn(nations)),
			rng.Float64() * 10000,
		})
	}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	nCust := scaled(1500, sf)
	for ck := 0; ck < nCust; ck++ {
		db.Customer = append(db.Customer, core.Record{
			int64(ck), fmt.Sprintf("Customer#%06d", ck), int64(rng.Intn(nations)),
			rng.Float64() * 10000, segments[rng.Intn(len(segments))],
		})
	}
	nOrders := scaled(15000, sf)
	for ok := 0; ok < nOrders; ok++ {
		// Dates as integer days in [0, 2556) (7 years, like 1992-1998).
		db.Orders = append(db.Orders, core.Record{
			int64(ok), int64(rng.Intn(nCust)), int64(rng.Intn(2556)),
			100 + rng.Float64()*400000,
		})
		nLines := 1 + rng.Intn(7)
		for l := 0; l < nLines; l++ {
			db.Lineitem = append(db.Lineitem, core.Record{
				int64(ok), int64(rng.Intn(nSupp)),
				900 + rng.Float64()*100000, rng.Float64() * 0.1,
				float64(1 + rng.Intn(50)),
			})
		}
	}
	return db
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		return 1
	}
	return n
}

// RecordLines renders records as tab-separated text lines (the HDFS /
// local-file resident tables of the polystore experiments).
func RecordLines(records []core.Record) []string {
	out := make([]string, len(records))
	for i, r := range records {
		line := ""
		for j, v := range r {
			if j > 0 {
				line += "\t"
			}
			line += fmt.Sprint(v)
		}
		out[i] = line
	}
	return out
}

// ParseRecordLine parses a tab-separated line, such as one of RecordLines,
// into a Record: a field strconv.ParseInt reads (base 10) is an int64, else
// one strconv.ParseFloat reads is a float64, else it stays a string. Each
// parser is called only on a field whose leading characters it could
// accept, so strconv still decides every value but a string field costs no
// failed parse and no error allocation.
func ParseRecordLine(line string) core.Record {
	rec := make(core.Record, strings.Count(line, "\t")+1)
	for i := range rec {
		f := line
		if tab := strings.IndexByte(line, '\t'); tab >= 0 {
			f, line = line[:tab], line[tab+1:]
		}
		rec[i] = parseField(f)
	}
	return rec
}

func parseField(f string) any {
	body := f
	if body != "" && (body[0] == '+' || body[0] == '-') {
		body = body[1:]
	}
	if body == "" {
		return f
	}
	if isDigits(body) {
		if n, err := strconv.ParseInt(f, 10, 64); err == nil {
			return n
		}
		// Out of int64's range: ParseFloat reads it below.
	}
	switch c := body[0]; {
	case '0' <= c && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		if x, err := strconv.ParseFloat(f, 64); err == nil {
			return x
		}
	}
	return f
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// AnySlice widens a record slice to quanta.
func AnySlice(records []core.Record) []any {
	out := make([]any, len(records))
	for i, r := range records {
		out[i] = r
	}
	return out
}
