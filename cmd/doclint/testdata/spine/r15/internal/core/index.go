package core

var unitByID map[string]*ComputeUnit
