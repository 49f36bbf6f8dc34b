package plan

var planted map[string]*unitRec
